package activerbac

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"activerbac/internal/clock"
	"activerbac/internal/policy"
	"activerbac/internal/rulegen"
	"activerbac/internal/sentinel"
	"activerbac/internal/wire"
	"activerbac/internal/workload"
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

// TestDecisionAllocCeilings pins the allocation counts of the miss
// paths as ceilings: a row may go down, and then its ceiling goes down
// with it; a change that raises one edits this table and says why.
// Counts are the same on every host, unlike timings. Each row is the
// average over its runs; the batch row is per tuple.
func TestDecisionAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts need a non-race build")
	}
	for _, row := range allocRows(t) {
		t.Run(row.name, func(t *testing.T) {
			allocs, bytes := measureAllocs(row.runs, row.fn)
			// Ceilings carry two decimals, and so does the count.
			allocs = math.Round(100*allocs/row.per) / 100
			bytes /= row.per
			t.Logf("%.2f allocs, %.0f B", allocs, bytes)
			if allocs > row.ceiling {
				t.Fatalf("%.2f allocs, ceiling %.2f", allocs, row.ceiling)
			}
		})
	}
}

// allocRow is one pinned path: fn runs it once, covering per items.
type allocRow struct {
	name    string
	ceiling float64
	runs    int
	per     float64
	fn      func()
}

// measureAllocs reports fn's mean heap allocations and bytes per run,
// like testing.AllocsPerRun, which counts no bytes: one processor, one
// warm-up call.
func measureAllocs(runs int, fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

func allocRows(t *testing.T) []allocRow {
	t.Helper()
	// The nil-options deny miss: a denial never caches, so every call
	// runs the cascade.
	deny := newHitFixture(t, nil, 1)
	// E1's OWTE miss: the E1 enterprise policy (8 roles), a user with
	// one role active, checking a permission it lacks.
	e1 := newE1MissFixture(t)
	// A cold 256-tuple batch: 80 % of the tuples allowed, the verdict
	// cache invalidated before each run, so every tuple cascades and
	// every allow is stored. Each cache shard the run's allows land in
	// allocates its fresh segment once; the cache hash is seeded per
	// process, so that is 58 to 64 shards, and the count moves by up to
	// 0.02 between processes (2.87–2.89 measured; 2.91 leaves room for
	// every shard plus one grown bucket).
	cold := newColdBatchFixture(t, 256)
	verdicts := make([]bool, 0, 256)

	check := wire.AppendCheck(nil, "s-000123", "read", "obj-00042")
	batchReqs := make([]wire.CheckRequest, 256)
	for i := range batchReqs {
		batchReqs[i] = wire.CheckRequest{Session: "s-000123", Operation: "read", Object: fmt.Sprintf("obj-%05d", i)}
	}
	batch := wire.AppendCheckBatch(nil, batchReqs)
	into := make([]wire.CheckRequest, 0, 256)

	return []allocRow{
		{"nil-options deny miss", 11, 200, 1, func() {
			if deny.s.CheckAccessTuple(deny.session, "write", "doc") {
				t.Fatal("denied check allowed")
			}
		}},
		{"E1 OWTE miss", 11, 200, 1, func() {
			if e1.s.CheckAccess(e1.sid, e1.perm) {
				t.Fatal("denied check allowed")
			}
		}},
		{"cold CheckAccessBatch per tuple", 2.91, 20, 256, func() {
			cold.s.gen.Engine().FastPath().Invalidate()
			verdicts = cold.s.CheckAccessBatch(cold.checks, verdicts)
		}},
		{"ConsumeCheck", 1, 200, 1, func() {
			if _, _, _, err := wire.ConsumeCheck(check); err != nil {
				t.Fatal(err)
			}
		}},
		{"ConsumeCheckBatch per frame", 1, 200, 1, func() {
			var err error
			if into, err = wire.ConsumeCheckBatch(batch, into[:0]); err != nil {
				t.Fatal(err)
			}
		}},
	}
}

// e1MissFixture is a System on E1's enterprise policy with one session
// and a permission that session is denied.
type e1MissFixture struct {
	s    *System
	sid  SessionID
	perm Permission
}

func newE1MissFixture(t *testing.T) *e1MissFixture {
	t.Helper()
	spec := workload.MustEnterprise(workload.EnterpriseConfig{
		Roles: 8, Shape: workload.XYZShape, Branch: 4,
		SSDFraction: 0.3, Users: 64, PermsPerRole: 3, Seed: 1,
	})
	s, err := Open(policy.Format(spec), &Options{Clock: clock.NewSim(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	user := UserID(spec.Users[0].Name)
	sid, err := s.CreateSession(user)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddActiveRole(user, sid, RoleID(spec.Users[0].Roles[0])); err != nil {
		t.Fatal(err)
	}
	for _, p := range spec.Permissions {
		perm := Permission{Operation: p.Operation, Object: p.Object}
		if !s.CheckAccess(sid, perm) {
			return &e1MissFixture{s: s, sid: sid, perm: perm}
		}
	}
	t.Fatal("E1 policy grants the session every permission")
	return nil
}

// coldBatchFixture is a System whose one session may read obj-0…obj-n
// except every fifth object, with the batch checking each once.
type coldBatchFixture struct {
	s      *System
	checks []BatchCheck
}

func newColdBatchFixture(t *testing.T, n int) *coldBatchFixture {
	t.Helper()
	var src strings.Builder
	src.WriteString("policy \"cold\"\nrole R\nuser u: R\n")
	for i := 0; i < n; i++ {
		if i%5 != 4 {
			fmt.Fprintf(&src, "permission R: read obj-%d\n", i)
		}
	}
	s, err := Open(src.String(), nil)
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
	f := &coldBatchFixture{s: s, checks: make([]BatchCheck, n)}
	for i := range f.checks {
		f.checks[i] = BatchCheck{Session: string(sid), Operation: "read", Object: fmt.Sprintf("obj-%d", i)}
	}
	vs := s.CheckAccessBatch(f.checks, nil)
	allowed := 0
	for _, v := range vs {
		if v {
			allowed++
		}
	}
	if allowed != n-n/5 {
		t.Fatalf("%d of %d allowed, want %d", allowed, n, n-n/5)
	}
	return f
}
