package activerbac

import (
	"math"
	"testing"
	"time"

	"activerbac/internal/rulegen"
)

// hitCounters are the series one verdict-cache hit moves.
type hitCounters struct {
	allows, denies            float64
	hits, misses, bypass      uint64
	batches, batchTuples      float64
	probes, decisions, groups float64
	slow, traces              float64
}

func readHitCounters(s *System) hitCounters {
	o := s.Observer()
	fp := s.FastPathStats()
	return hitCounters{
		allows:      o.Decisions.With(rulegen.EvCheckAccess, "allow").Value(),
		denies:      o.Decisions.With(rulegen.EvCheckAccess, "deny").Value(),
		hits:        fp.Hits,
		misses:      fp.Misses,
		bypass:      fp.Bypass,
		batches:     float64(o.BatchSize.Count()),
		batchTuples: o.BatchSize.Sum(),
		probes:      float64(o.StageFastPath.Count()),
		decisions:   float64(o.DecisionLatency.With(rulegen.EvCheckAccess).Count()),
		groups:      o.BatchGroups.Value(),
		slow:        o.SlowDecisions.Value(),
		traces:      o.TracesTotal.Value(),
	}
}

func (a hitCounters) minus(b hitCounters) hitCounters {
	return hitCounters{
		allows: a.allows - b.allows, denies: a.denies - b.denies,
		hits: a.hits - b.hits, misses: a.misses - b.misses, bypass: a.bypass - b.bypass,
		batches: a.batches - b.batches, batchTuples: a.batchTuples - b.batchTuples,
		probes: a.probes - b.probes, decisions: a.decisions - b.decisions, groups: a.groups - b.groups,
		slow: a.slow - b.slow, traces: a.traces - b.traces,
	}
}

// TestCheckAccessHitCountsAsBatchOfOne: a hit answered by
// CheckAccessHit — the wire reader's inline path — moves the decision,
// fast-path, batch-size, probe-stage and slow-capture series exactly as
// the same hit decided as a batch of one does, and a miss moves nothing
// until it is decided. Every decision is slow here (1ns threshold), so
// the slow capture is exercised on both paths.
func TestCheckAccessHitCountsAsBatchOfOne(t *testing.T) {
	s, err := Open("policy \"hit\"\nrole R\npermission R: read doc\npermission R: read memo\nuser u: R\n",
		&Options{SlowThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sid, err := s.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddActiveRole("u", sid, "R"); err != nil {
		t.Fatal(err)
	}
	doc := BatchCheck{Session: string(sid), Operation: "read", Object: "doc"}
	if !s.CheckAccessTuple(doc.Session, doc.Operation, doc.Object) { // the warming miss
		t.Fatal("warming check denied")
	}

	before := readHitCounters(s)
	if vs := s.CheckAccessBatch([]BatchCheck{doc}, nil); !vs[0] {
		t.Fatal("batch of one denied")
	}
	batchOfOne := readHitCounters(s).minus(before)

	before = readHitCounters(s)
	c := doc
	if !s.CheckAccessHit(&c) {
		t.Fatal("CheckAccessHit missed a cached allow")
	}
	inline := readHitCounters(s).minus(before)
	if inline != batchOfOne {
		t.Fatalf("inline hit counted %+v, batch of one %+v", inline, batchOfOne)
	}
	if inline.hits != 1 || inline.allows != 1 || inline.slow != 1 || inline.batches != 1 || inline.probes != 1 {
		t.Fatalf("inline hit counted %+v", inline)
	}

	before = readHitCounters(s)
	memo := BatchCheck{Session: string(sid), Operation: "read", Object: "memo"}
	if s.CheckAccessHit(&memo) {
		t.Fatal("CheckAccessHit answered an uncached check")
	}
	if moved := readHitCounters(s).minus(before); moved != (hitCounters{}) {
		t.Fatalf("a miss moved %+v before it was decided", moved)
	}
	if !memo.Trace.IsZero() {
		t.Fatal("an unsampled miss came back with a trace id")
	}
}

// TestCheckAccessHitSamplesOnce: at trace sample rate r, the share of
// N repeat hits that end up traced stays within binomial bounds of r —
// CheckAccessHit draws the sampler, a picked hit goes to the decide
// path with the stamped id, and that path does not draw again. A hit
// the sampler skips is answered inline and counts no trace.
func TestCheckAccessHitSamplesOnce(t *testing.T) {
	const (
		n = 2000
		r = 0.25
	)
	s, err := Open("policy \"hit\"\nrole R\npermission R: read doc\nuser u: R\n",
		&Options{TraceBuffer: 16, TraceSample: r})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sid, err := s.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddActiveRole("u", sid, "R"); err != nil {
		t.Fatal(err)
	}
	doc := BatchCheck{Session: string(sid), Operation: "read", Object: "doc"}
	for s.FastPathStats().Misses == 0 {
		s.CheckAccessBatch([]BatchCheck{doc}, nil) // warm: an untraced miss stores the allow
	}
	before := readHitCounters(s)
	inline := 0
	for i := 0; i < n; i++ {
		c := doc
		if s.CheckAccessHit(&c) {
			inline++
			continue
		}
		if c.Trace.IsZero() {
			t.Fatal("a cached allow missed without a trace stamp")
		}
		if vs := s.CheckAccessBatch([]BatchCheck{c}, nil); !vs[0] {
			t.Fatal("sampled check denied")
		}
	}
	moved := readHitCounters(s).minus(before)
	traced := n - inline
	if int(moved.traces) != traced {
		t.Fatalf("%d checks left the inline path, %v traces recorded", traced, moved.traces)
	}
	mean, sd := n*r, math.Sqrt(n*r*(1-r))
	if math.Abs(float64(traced)-mean) > 6*sd {
		t.Fatalf("%d of %d hits traced at rate %v, want %.0f ± %.0f", traced, n, r, mean, 6*sd)
	}
}
