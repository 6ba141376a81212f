package activerbac

import (
	"slices"
	"strings"
	"testing"

	"activerbac/internal/rulegen"
	"activerbac/internal/sentinel"
)

// TestFastPathHitZeroAlloc gates the verdict-cache hit path at zero
// allocations per call, through the facade and through the engine, for
// one check and for a 256-tuple batch: with the fast path on and no
// observer, repeat ALLOWs must be served without touching the heap.
func TestFastPathHitZeroAlloc(t *testing.T) {
	s, err := Open("policy \"hit\"\nrole R\npermission R: read doc\nuser u: R\n", &Options{FastPath: true})
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
	session := string(sid)
	if !s.CheckAccessTuple(session, "read", "doc") { // the warming miss
		t.Fatal("warming check denied")
	}
	eng := s.gen.Engine()
	const batchN = 256
	checks := make([]BatchCheck, batchN)
	tuples := make([]sentinel.CheckTuple, batchN)
	for i := range checks {
		checks[i] = BatchCheck{Session: session, Operation: "read", Object: "doc"}
		tuples[i] = sentinel.CheckTuple{User: "u", Session: session, Operation: "read", Object: "doc"}
	}
	verdicts := make([]bool, 0, batchN)
	vds := make([]sentinel.Verdict, 0, batchN)
	for _, tc := range []struct {
		name  string
		check func() bool
	}{
		{"System.CheckAccessTuple", func() bool { return s.CheckAccessTuple(session, "read", "doc") }},
		{"Engine.DecideCheck", func() bool {
			dec, err := eng.DecideCheck(rulegen.EvCheckAccess, "u", session, "read", "doc")
			return err == nil && dec.Allowed()
		}},
		{"System.CheckAccessBatch", func() bool {
			verdicts = s.CheckAccessBatch(checks, verdicts)
			return len(verdicts) == batchN && !slices.Contains(verdicts, false)
		}},
		{"Engine.DecideCheckBatch", func() bool {
			var err error
			vds, err = eng.DecideCheckBatch(rulegen.EvCheckAccess, tuples, vds)
			return err == nil && len(vds) == batchN &&
				!slices.ContainsFunc(vds, func(v sentinel.Verdict) bool { return !v.Allowed })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && strings.Contains(tc.name, "Batch") {
				// A batch holds several pooled buffers; the race
				// detector's random pool drops make them allocate.
				t.Skip("batch allocation counts need a non-race build")
			}
			before, _ := s.FastPathStats()
			allowed := true
			allocs := testing.AllocsPerRun(100, func() { allowed = tc.check() && allowed })
			after, _ := s.FastPathStats()
			if !allowed {
				t.Fatal("cached check denied")
			}
			if after.Misses != before.Misses || after.Hits == before.Hits {
				t.Fatalf("checks left the cache: hits %d→%d, misses %d→%d",
					before.Hits, after.Hits, before.Misses, after.Misses)
			}
			if allocs != 0 {
				t.Fatalf("%v allocs per call, want 0", allocs)
			}
		})
	}
}
