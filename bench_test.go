package activerbac_test

// The paper experiments: one benchmark family per experiment in
// DESIGN.md §4 (F1, E1-E8, ablations A1-A3). `go test -bench=. -benchmem`
// regenerates every series; `make bench-smoke` runs each once as part of
// `make check`. E9 is `go test ./internal/conformance`. End-to-end and
// per-layer measurements of the running system come from
// `go run ./benchmark` (BENCHMARK.json).

import (
	"fmt"
	"testing"
	"time"

	"activerbac"
	"activerbac/internal/baseline"
	"activerbac/internal/clock"
	"activerbac/internal/event"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
	"activerbac/internal/security"
	"activerbac/internal/workload"
)

var benchEpoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// openSynthetic builds an OWTE system for a synthetic enterprise.
func openSynthetic(b *testing.B, cfg workload.EnterpriseConfig) (*activerbac.System, *policy.Spec, *clock.Sim) {
	b.Helper()
	spec := workload.MustEnterprise(cfg)
	sim := clock.NewSim(benchEpoch)
	sys, err := openFromSpec(spec, sim)
	if err != nil {
		b.Fatal(err)
	}
	return sys, spec, sim
}

// openFromSpec round-trips the spec through its canonical text: the
// facade consumes policy sources.
func openFromSpec(spec *policy.Spec, clk activerbac.Clock) (*activerbac.System, error) {
	return activerbac.Open(policySourceOf(spec), &activerbac.Options{Clock: clk})
}

// --------------------------------------------------------------------------
// F1: Figure 1 — policy specification to rule generation (enterprise XYZ)

func BenchmarkF1_GenerateXYZ(b *testing.B) {
	src := policySourceOf(workload.XYZ())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := activerbac.Open(src, &activerbac.Options{Clock: clock.NewSim(benchEpoch)})
		if err != nil {
			b.Fatal(err)
		}
		if len(sys.Rules()) == 0 {
			b.Fatal("no rules generated")
		}
		sys.Close()
	}
}

// --------------------------------------------------------------------------
// E1: CheckAccess latency, OWTE vs baseline, vs role count

func benchmarkCheckAccess(b *testing.B, roles int, owte bool) {
	cfg := workload.EnterpriseConfig{
		Roles: roles, Shape: workload.XYZShape, Branch: 4,
		SSDFraction: 0.3, Users: 64, PermsPerRole: 3, Seed: 1,
	}
	spec := workload.MustEnterprise(cfg)
	sim := clock.NewSim(benchEpoch)
	var enf baseline.Enforcer
	if owte {
		sys, err := openFromSpec(spec, sim)
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		enf = sys
	} else {
		eng, err := baseline.New(sim, spec)
		if err != nil {
			b.Fatal(err)
		}
		enf = eng
	}
	drv := workload.NewDriver(enf)
	// Warm up: one activation per user so checks exercise real state.
	warm := workload.Stream(spec, workload.ActivateHeavyMix, 4*len(spec.Users), 2)
	if err := drv.Run(warm); err != nil {
		b.Fatal(err)
	}
	reqs := workload.Stream(spec, workload.CheckOnlyMix, 4096, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := drv.Do(reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_CheckAccess(b *testing.B) {
	for _, roles := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("owte/roles=%d", roles), func(b *testing.B) {
			benchmarkCheckAccess(b, roles, true)
		})
		b.Run(fmt.Sprintf("baseline/roles=%d", roles), func(b *testing.B) {
			benchmarkCheckAccess(b, roles, false)
		})
	}
}

// E1b: one allowed check repeated by parallel callers. After the first
// call every check is a verdict-cache hit, so this times the hit path —
// a lock-free probe — under contention, not the cascade: a miss would
// queue on the detector's one drain (Sentinel's single event-detector
// thread).
func BenchmarkE1_CheckAccessParallel(b *testing.B) {
	spec := workload.MustEnterprise(workload.EnterpriseConfig{
		Roles: 64, Shape: workload.XYZShape, Branch: 4,
		SSDFraction: 0.3, Users: 64, PermsPerRole: 3, Seed: 1,
	})
	sys, err := openFromSpec(spec, clock.NewSim(benchEpoch))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	user := activerbac.UserID(spec.Users[0].Name)
	role := activerbac.RoleID(spec.Users[0].Roles[0])
	sid, err := sys.CreateSession(user)
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AddActiveRole(user, sid, role); err != nil {
		b.Fatal(err)
	}
	p := activerbac.Permission{Operation: spec.Permissions[0].Operation, Object: spec.Permissions[0].Object}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sys.CheckAccess(sid, p)
		}
	})
}

// --------------------------------------------------------------------------
// E2: composite event detection throughput per operator and mode

func BenchmarkE2_Operators(b *testing.B) {
	ops := []struct {
		name string
		expr string
	}{
		{"SEQ", "SEQ(a, b)"},
		{"AND", "AND(a, b)"},
		{"OR", "OR(a, b)"},
		{"NOT", "NOT(a, x, b)"},
		{"APERIODIC", "APERIODIC(a, b, x)"},
	}
	modes := []event.Mode{event.Recent, event.Chronicle, event.Continuous, event.Cumulative}
	for _, op := range ops {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/%s", op.name, mode), func(b *testing.B) {
				sim := clock.NewSim(benchEpoch)
				det := event.New(sim)
				det.MustPrimitive("a")
				det.MustPrimitive("b")
				det.MustPrimitive("x")
				expr := event.MustParse(op.expr)
				det.MustDefine("c", event.WithMode(expr, mode))
				n := 0
				if _, err := det.Subscribe("c", func(*event.Occurrence) { n++ }); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim.Advance(time.Second)
					// Balanced initiator/terminator/closer stream keeps
					// operator buffers bounded, so per-op cost reflects
					// steady state rather than unbounded buffer growth.
					switch i % 3 {
					case 0:
						det.MustRaise("a", nil)
					case 1:
						det.MustRaise("b", nil)
					default:
						det.MustRaise("x", nil)
					}
				}
			})
		}
	}
}

func BenchmarkE2_PlusTimerLoad(b *testing.B) {
	sim := clock.NewSim(benchEpoch)
	det := event.New(sim)
	det.MustPrimitive("open")
	det.MustDefine("timeout", event.WithMode(event.Plus(event.NameExpr("open"), time.Hour), event.Chronicle))
	fired := 0
	if _, err := det.Subscribe("timeout", func(*event.Occurrence) { fired++ }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.MustRaise("open", nil)
		sim.Advance(time.Minute)
	}
	b.StopTimer()
	sim.Advance(2 * time.Hour)
}

// --------------------------------------------------------------------------
// E3: rule generation time vs enterprise size

func BenchmarkE3_Generate(b *testing.B) {
	for _, roles := range []int{10, 100, 400} {
		for _, ssd := range []float64{0, 0.3} {
			cfg := workload.EnterpriseConfig{
				Roles: roles, Shape: workload.XYZShape, Branch: 8,
				SSDFraction: ssd, Users: roles, PermsPerRole: 2, Seed: 4,
			}
			src := policySourceOf(workload.MustEnterprise(cfg))
			b.Run(fmt.Sprintf("roles=%d/ssd=%.1f", roles, ssd), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sys, err := activerbac.Open(src, &activerbac.Options{Clock: clock.NewSim(benchEpoch)})
					if err != nil {
						b.Fatal(err)
					}
					sys.Close()
				}
			})
		}
	}
}

// --------------------------------------------------------------------------
// E4: regeneration cost after a one-role policy edit — incremental vs full

func BenchmarkE4_Regenerate(b *testing.B) {
	for _, roles := range []int{10, 100, 400} {
		cfg := workload.EnterpriseConfig{
			Roles: roles, Shape: workload.XYZShape, Branch: 8,
			SSDFraction: 0.3, Users: roles, PermsPerRole: 2, Seed: 4,
		}
		base := policySourceOf(workload.MustEnterprise(cfg))
		// The paper's running change: add/adjust a shift on one role.
		v1 := base + "shift r001 08:00:00-16:00:00\n"
		v2 := base + "shift r001 09:00:00-17:00:00\n"

		b.Run(fmt.Sprintf("incremental/roles=%d", roles), func(b *testing.B) {
			sys, err := activerbac.Open(v1, &activerbac.Options{Clock: clock.NewSim(benchEpoch)})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := v2
				if i%2 == 1 {
					next = v1
				}
				rep, err := sys.ApplyPolicy(next)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Touched() != 1 {
					b.Fatalf("touched %d roles, want 1", rep.Touched())
				}
			}
		})
		b.Run(fmt.Sprintf("full/roles=%d", roles), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src := v2
				if i%2 == 1 {
					src = v1
				}
				sys, err := activerbac.Open(src, &activerbac.Options{Clock: clock.NewSim(benchEpoch)})
				if err != nil {
					b.Fatal(err)
				}
				sys.Close()
			}
		})
	}
}

// --------------------------------------------------------------------------
// E5: active security monitor overhead and detection

func BenchmarkE5_ActiveSecurity(b *testing.B) {
	for _, thresholds := range []int{0, 1, 8} {
		b.Run(fmt.Sprintf("thresholds=%d", thresholds), func(b *testing.B) {
			sim := clock.NewSim(benchEpoch)
			mon := security.NewMonitor(sim)
			for i := 0; i < thresholds; i++ {
				if err := mon.AddThreshold(fmt.Sprintf("t%d", i), 100, time.Minute, "alert"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Advance(time.Millisecond)
				mon.RecordDenial(fmt.Sprintf("user%d", i%32))
			}
		})
	}
}

// --------------------------------------------------------------------------
// E6: activation throughput per AAR variant

func BenchmarkE6_Activate(b *testing.B) {
	variants := []struct {
		name string
		src  string
		role string
	}{
		{"AAR1-core", "policy \"p\"\nrole R\nuser u: R\n", "R"},
		{"AAR2-hierarchy", "policy \"p\"\nrole Top\nrole R\nhierarchy Top > R\nuser u: Top\n", "R"},
		{"AAR3-dsd", "policy \"p\"\nrole R\nrole S\ndsd d 2: R, S\nuser u: R\n", "R"},
		{"AAR4-dsd-hierarchy", "policy \"p\"\nrole Top\nrole R\nrole S\nhierarchy Top > R\ndsd d 2: R, S\nuser u: Top\n", "R"},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			sys, err := activerbac.Open(v.src, &activerbac.Options{Clock: clock.NewSim(benchEpoch)})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			sid, err := sys.CreateSession("u")
			if err != nil {
				b.Fatal(err)
			}
			role := activerbac.RoleID(v.role)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.AddActiveRole("u", sid, role); err != nil {
					b.Fatal(err)
				}
				if err := sys.DropActiveRole("u", sid, role); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE6_ActivateBaseline(b *testing.B) {
	spec := workload.MustEnterprise(workload.EnterpriseConfig{Roles: 1, Shape: workload.Flat, Users: 1, Seed: 1})
	sim := clock.NewSim(benchEpoch)
	eng, err := baseline.New(sim, spec)
	if err != nil {
		b.Fatal(err)
	}
	user := rbac.UserID(spec.Users[0].Name)
	role := rbac.RoleID(spec.Users[0].Roles[0])
	sid, err := eng.CreateSession(user)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.AddActiveRole(user, sid, role); err != nil {
			b.Fatal(err)
		}
		if err := eng.DropActiveRole(user, sid, role); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------------------
// E7: temporal machinery — duration timers under load

func BenchmarkE7_TemporalTimers(b *testing.B) {
	for _, pending := range []int{100, 10000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			src := "policy \"p\"\nrole R\nduration * R 1h\n"
			for i := 0; i < pending; i++ {
				src += fmt.Sprintf("user u%04d: R\n", i)
			}
			sim := clock.NewSim(benchEpoch)
			sys, err := activerbac.Open(src, &activerbac.Options{Clock: sim})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			// Arm `pending` duration timers.
			for i := 0; i < pending; i++ {
				u := activerbac.UserID(fmt.Sprintf("u%04d", i))
				sid, err := sys.CreateSession(u)
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.AddActiveRole(u, sid, "R"); err != nil {
					b.Fatal(err)
				}
			}
			// Measure activation/deactivation with the timer population
			// armed.
			sid, err := sys.CreateSession("u0000")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.AddActiveRole("u0000", sid, "R"); err != nil {
					b.Fatal(err)
				}
				if err := sys.DropActiveRole("u0000", sid, "R"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE7_TimerFireThroughput(b *testing.B) {
	sim := clock.NewSim(benchEpoch)
	fired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.AfterFunc(time.Duration(i%1000)*time.Millisecond, func() { fired++ })
	}
	sim.Advance(time.Second)
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// --------------------------------------------------------------------------
// E8: CFD coupling overhead

func BenchmarkE8_CFD(b *testing.B) {
	b.Run("coupled", func(b *testing.B) {
		src := "policy \"p\"\nrole A\nrole B\ncouple A -> B\n"
		sys, err := activerbac.Open(src, &activerbac.Options{Clock: clock.NewSim(benchEpoch)})
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.DisableRole("B"); err != nil {
				b.Fatal(err)
			}
			if err := sys.EnableRole("A"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncoupled", func(b *testing.B) {
		src := "policy \"p\"\nrole A\nrole B\n"
		sys, err := activerbac.Open(src, &activerbac.Options{Clock: clock.NewSim(benchEpoch)})
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sys.DisableRole("B"); err != nil {
				b.Fatal(err)
			}
			if err := sys.EnableRole("A"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --------------------------------------------------------------------------
// Ablations (design-choice validations from DESIGN.md)

// A1: rule dispatch must be O(1) in total pool size — rules bind to
// events through a per-event index, so unrelated rules cost nothing.
func BenchmarkA1_DispatchVsPoolSize(b *testing.B) {
	for _, roles := range []int{4, 64, 512} {
		b.Run(fmt.Sprintf("roles=%d", roles), func(b *testing.B) {
			cfg := workload.EnterpriseConfig{
				Roles: roles, Shape: workload.Flat, Users: 4, PermsPerRole: 1, Seed: 9,
			}
			spec := workload.MustEnterprise(cfg)
			sys, err := openFromSpec(spec, clock.NewSim(benchEpoch))
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			user := activerbac.UserID(spec.Users[0].Name)
			role := activerbac.RoleID(spec.Users[0].Roles[0])
			sid, err := sys.CreateSession(user)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.AddActiveRole(user, sid, role); err != nil {
					b.Fatal(err)
				}
				if err := sys.DropActiveRole(user, sid, role); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// A2: decomposition of the OWTE decision overhead — the same check as
// a bare store call, as an event raise with no rules, as the full ruled
// decision (ExplainAccess, which always runs the cascade) and as the
// repeat allow the verdict cache serves (CheckAccess).
func BenchmarkA2_DecisionOverhead(b *testing.B) {
	spec := workload.MustEnterprise(workload.EnterpriseConfig{
		Roles: 8, Shape: workload.Flat, Users: 1, PermsPerRole: 2, Seed: 9,
	})
	sim := clock.NewSim(benchEpoch)
	eng, err := baseline.New(sim, spec)
	if err != nil {
		b.Fatal(err)
	}
	user := rbac.UserID(spec.Users[0].Name)
	role := rbac.RoleID(spec.Users[0].Roles[0])
	sid, err := eng.CreateSession(user)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.AddActiveRole(user, sid, role); err != nil {
		b.Fatal(err)
	}
	perm := rbac.Permission{Operation: spec.Permissions[0].Operation, Object: spec.Permissions[0].Object}

	b.Run("store-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Store().CheckAccess(sid, perm)
		}
	})
	b.Run("raise-no-rules", func(b *testing.B) {
		det := event.New(clock.NewSim(benchEpoch))
		det.MustPrimitive("probe")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			det.MustRaise("probe", nil)
		}
	})
	sys, err := openFromSpec(spec, clock.NewSim(benchEpoch))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	sid2, err := sys.CreateSession(activerbac.UserID(user))
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AddActiveRole(activerbac.UserID(user), sid2, activerbac.RoleID(role)); err != nil {
		b.Fatal(err)
	}
	p := activerbac.Permission{Operation: perm.Operation, Object: perm.Object}
	b.Run("full-decision", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !sys.ExplainAccess(sid2, p).Allowed {
				b.Fatal("denied")
			}
		}
	})
	b.Run("cache-hit", func(b *testing.B) {
		if !sys.CheckAccess(sid2, p) { // the warming miss
			b.Fatal("denied")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.CheckAccess(sid2, p)
		}
	})
}

// A3: incremental regeneration with no actual change (pure diff cost).
func BenchmarkA3_ApplyNoChange(b *testing.B) {
	cfg := workload.EnterpriseConfig{
		Roles: 100, Shape: workload.XYZShape, Branch: 8,
		SSDFraction: 0.3, Users: 100, PermsPerRole: 2, Seed: 4,
	}
	src := policySourceOf(workload.MustEnterprise(cfg))
	sys, err := activerbac.Open(src, &activerbac.Options{Clock: clock.NewSim(benchEpoch)})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.ApplyPolicy(src)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Touched() != 0 {
			b.Fatal("no-op apply touched roles")
		}
	}
}

// --------------------------------------------------------------------------
// Open: the cost of one policy load, the facade.open_ms layer of the
// out-of-process benchmark (E16 is its enterprise, E32 the same shape
// at twice the roles). The analyze gate pays it once per hot reload.

func BenchmarkOpen(b *testing.B) {
	for _, roles := range []int{16, 32} {
		cfg := e16
		cfg.Roles = roles
		src := policySourceOf(workload.MustEnterprise(cfg))
		b.Run(fmt.Sprintf("E%d", roles), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys, err := activerbac.Open(src, &activerbac.Options{Clock: clock.NewSim(benchEpoch)})
				if err != nil {
					b.Fatal(err)
				}
				sys.Close()
			}
		})
	}
}

// --------------------------------------------------------------------------
// helpers

// policySourceOf renders a spec back to .acp text. The workload
// generator builds policy.Spec values; the facade consumes sources, so
// benchmarks serialize through the canonical writer.
func policySourceOf(spec *policy.Spec) string { return policy.Format(spec) }
