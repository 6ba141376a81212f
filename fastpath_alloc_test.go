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
// one check — decided, or answered by the verdict-cache-only entry the
// wire reader uses — and for a 256-tuple batch: repeat ALLOWs must be served,
// and metered, without touching the heap. Each path runs on a System
// opened with nil options — the default, which needs no option for the
// cache or the metrics to be on — and on ones that still set the inert
// FastPath and Metrics.
func TestFastPathHitZeroAlloc(t *testing.T) {
	const batchN = 256
	fixtures := []struct {
		name string
		f    *hitFixture
	}{
		{"nil-options", newHitFixture(t, nil, batchN)},
		{"FastPath", newHitFixture(t, &Options{FastPath: true}, batchN)},
		{"Metrics", newHitFixture(t, &Options{Metrics: true}, batchN)},
	}
	verdicts := make([]bool, 0, batchN)
	vds := make([]sentinel.Verdict, 0, batchN)
	for _, tc := range []struct {
		name  string
		check func(f *hitFixture) bool
	}{
		{"System.CheckAccessTuple", func(f *hitFixture) bool { return f.s.CheckAccessTuple(f.session, "read", "doc") }},
		{"Engine.DecideCheck", func(f *hitFixture) bool {
			dec, err := f.s.gen.Engine().DecideCheck(rulegen.EvCheckAccess, "u", f.session, "read", "doc")
			return err == nil && dec.Allowed()
		}},
		{"System.CheckAccessHit", func(f *hitFixture) bool {
			c := f.checks[0]
			return f.s.CheckAccessHit(&c)
		}},
		{"Engine.CheckHit", func(f *hitFixture) bool {
			return f.s.gen.Engine().CheckHit(rulegen.EvCheckAccess, &f.tuples[0])
		}},
		{"System.CheckAccessBatch", func(f *hitFixture) bool {
			verdicts = f.s.CheckAccessBatch(f.checks, verdicts)
			return len(verdicts) == batchN && !slices.Contains(verdicts, false)
		}},
		{"Engine.DecideCheckBatch", func(f *hitFixture) bool {
			var err error
			vds, err = f.s.gen.Engine().DecideCheckBatch(rulegen.EvCheckAccess, f.tuples, vds)
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
			for _, fx := range fixtures {
				t.Run(fx.name, func(t *testing.T) {
					s := fx.f.s
					before := s.FastPathStats()
					allowed := true
					allocs := testing.AllocsPerRun(100, func() { allowed = tc.check(fx.f) && allowed })
					after := s.FastPathStats()
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
		})
	}
}

// hitFixture is one warmed System for TestFastPathHitZeroAlloc: user u
// holds R active in session, and read doc has been allowed once.
type hitFixture struct {
	s       *System
	session string
	checks  []BatchCheck
	tuples  []sentinel.CheckTuple
}

func newHitFixture(t *testing.T, opts *Options, batchN int) *hitFixture {
	t.Helper()
	s, err := Open("policy \"hit\"\nrole R\npermission R: read doc\nuser u: R\n", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
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
	f := &hitFixture{s: s, session: session,
		checks: make([]BatchCheck, batchN), tuples: make([]sentinel.CheckTuple, batchN)}
	for i := range f.checks {
		f.checks[i] = BatchCheck{Session: session, Operation: "read", Object: "doc"}
		f.tuples[i] = sentinel.CheckTuple{User: "u", Session: session, Operation: "read", Object: "doc"}
	}
	return f
}
