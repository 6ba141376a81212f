package activerbac

import (
	"testing"

	"activerbac/internal/rulegen"
)

// TestFastPathHitZeroAlloc gates the verdict-cache hit path at zero
// allocations per check, through the facade and through the engine:
// with the fast path on and no observer, a repeat ALLOW must be served
// without touching the heap.
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
	for _, tc := range []struct {
		name  string
		check func() bool
	}{
		{"System.CheckAccessTuple", func() bool { return s.CheckAccessTuple(session, "read", "doc") }},
		{"Engine.DecideCheck", func() bool {
			dec, err := eng.DecideCheck(rulegen.EvCheckAccess, "u", session, "read", "doc")
			return err == nil && dec.Allowed()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
				t.Fatalf("%v allocs per cache hit, want 0", allocs)
			}
		})
	}
}
