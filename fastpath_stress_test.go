package activerbac_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activerbac"
	"activerbac/internal/clock"
)

// stressPolicy builds the differential-stress policy: eight flat worker
// roles with one permission each and 64 users spread across them, plus
// two churn roles the mutator goroutines flip without ever changing a
// worker verdict — C0 carries a GTRBAC shift window so clock advances
// cross enable/disable boundaries, C1 is enabled/disabled directly.
func stressPolicy(windowStart string) string {
	var b strings.Builder
	for r := 0; r < 8; r++ {
		fmt.Fprintf(&b, "role W%d\n", r)
		fmt.Fprintf(&b, "permission W%d: op%d obj%d\n", r, r, r)
	}
	b.WriteString("role C0\nrole C1\n")
	fmt.Fprintf(&b, "shift C0 %s-17:00:00\n", windowStart)
	for u := 0; u < 64; u++ {
		fmt.Fprintf(&b, "user u%02d: W%d\n", u, u%8)
	}
	return b.String()
}

// TestFastPathDifferentialStress runs a deterministic per-worker
// operation sequence against one system under heavy interleaved churn
// (equivalent policy hot-reloads, enable/disable of an unrelated role,
// GTRBAC window flips via simulated time, and per-worker session
// drop/recreate), asserting after every single check that the verdict
// equals the worker's own model and that every allow — the only verdict
// the cache can serve — is also what the full cascade (ExplainAccess)
// answers. Run with -race this doubles as the memory-safety proof for
// the copy-on-write snapshot protocol.
//
// The state is partitioned so verdicts stay deterministic under
// concurrency: each of the 64 workers owns its user and sessions and
// only ever asserts about them, while the churn goroutines touch
// nothing a worker verdict depends on — they exist to hammer the
// invalidation paths between a worker's capture of the epoch pair and
// its cache store.
func TestFastPathDifferentialStress(t *testing.T) {
	epoch := time.Date(2026, 7, 6, 9, 30, 0, 0, time.UTC) // inside C0's shift
	sim := clock.NewSim(epoch)
	src := stressPolicy("09:00:00")

	sys, err := activerbac.Open(src, &activerbac.Options{Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	iters := 150
	if testing.Short() {
		iters = 40
	}

	var stop atomic.Bool
	var churn, workers sync.WaitGroup

	// Churn 1: hot-reload between two policies that differ only in the
	// churn role's shift window — regenerates C0's rules, publishes the
	// pool and bumps the fast-path epoch, worker rules untouched.
	altA, altB := stressPolicy("09:00:00"), stressPolicy("08:30:00")
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			next := altA
			if i%2 == 0 {
				next = altB
			}
			if _, err := sys.ApplyPolicy(next); err != nil {
				t.Errorf("ApplyPolicy: %v", err)
				return
			}
		}
	}()

	// Churn 2: flip the unrelated role C1 — policy-grade store publishes
	// and epoch bumps on every flip.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			var err error
			if i%2 == 0 {
				err = sys.DisableRole("C1")
			} else {
				err = sys.EnableRole("C1")
			}
			if err != nil {
				t.Errorf("role flip: %v", err)
				return
			}
		}
	}()

	// Churn 3: advance the simulated clock so C0's GTRBAC window enables
	// and disables it over and over.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for !stop.Load() {
			sim.Advance(4 * time.Hour)
		}
	}()

	// Workers: each owns user u%02d with role W(i%8).
	for w := 0; w < 64; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			user := activerbac.UserID(fmt.Sprintf("u%02d", w))
			role := activerbac.RoleID(fmt.Sprintf("W%d", w%8))
			own := activerbac.Permission{Operation: fmt.Sprintf("op%d", w%8), Object: fmt.Sprintf("obj%d", w%8)}
			other := activerbac.Permission{Operation: fmt.Sprintf("op%d", (w+1)%8), Object: fmt.Sprintf("obj%d", (w+1)%8)}

			open := func() (activerbac.SessionID, bool) {
				sid, err := sys.CreateSession(user)
				if err != nil {
					t.Errorf("worker %d: CreateSession: %v", w, err)
					return "", false
				}
				if err := sys.AddActiveRole(user, sid, role); err != nil {
					t.Errorf("worker %d: AddActiveRole: %v", w, err)
					return "", false
				}
				return sid, true
			}
			expect := func(sid activerbac.SessionID, p activerbac.Permission, want bool, what string) bool {
				got := sys.CheckAccessTuple(string(sid), p.Operation, p.Object)
				if got != want {
					t.Errorf("worker %d: %s: verdict %v, model says %v", w, what, got, want)
					return false
				}
				if got && !sys.ExplainAccess(sid, p).Allowed {
					t.Errorf("worker %d: %s: allowed, but the full cascade denies — verdicts diverged", w, what)
					return false
				}
				return true
			}

			sid, ok := open()
			if !ok {
				return
			}
			for i := 0; i < iters; i++ {
				if !expect(sid, own, true, "own permission, role active") ||
					!expect(sid, other, false, "foreign permission") {
					return
				}
				if i%10 == 9 {
					// Flip the worker's own role off and on: the session-
					// grade invalidation must stop the stale ALLOW.
					if err := sys.DropActiveRole(user, sid, role); err != nil {
						t.Errorf("worker %d: DropActiveRole: %v", w, err)
						return
					}
					if !expect(sid, own, false, "own permission, role dropped") {
						return
					}
					if err := sys.AddActiveRole(user, sid, role); err != nil {
						t.Errorf("worker %d: AddActiveRole: %v", w, err)
						return
					}
				}
				if i%50 == 49 {
					// Recreate the session entirely.
					if err := sys.DeleteSession(sid); err != nil {
						t.Errorf("worker %d: DeleteSession: %v", w, err)
						return
					}
					if !expect(sid, own, false, "own permission, session deleted") {
						return
					}
					if sid, ok = open(); !ok {
						return
					}
				}
			}
		}(w)
	}

	// The churn runs exactly as long as the workers need it.
	workers.Wait()
	stop.Store(true)
	churn.Wait()

	st := sys.FastPathStats()
	if st.Hits == 0 {
		t.Error("stress never hit the cache; the fast path was not exercised")
	}
	if st.Invalidations == 0 {
		t.Error("stress never invalidated the cache; the churn was not exercised")
	}
	t.Logf("fastpath stats: hits=%d misses=%d bypass=%d invalidations=%d epoch=%d",
		st.Hits, st.Misses, st.Bypass, st.Invalidations, st.Epoch)
}
