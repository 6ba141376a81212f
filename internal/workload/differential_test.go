package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"activerbac"
	"activerbac/internal/baseline"
	"activerbac/internal/clock"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
)

// Differential testing: the OWTE rule engine and the direct-check
// baseline implement the same authorization semantics, so on identical
// request streams they must produce identical outcome tallies and
// identical final state. This is the strongest correctness check in the
// repository — any divergence in SSD/DSD/hierarchy/cardinality handling
// between the generated rules and the imperative pipeline shows up
// here.

// diffConfig keeps to the feature set with identical semantics across
// the engines (no durations/shifts: the baseline sweeps lazily, the
// OWTE engine uses timers, so mid-stream timing could differ).
func diffSpec(seed int64, shape Shape) *policy.Spec {
	return MustEnterprise(EnterpriseConfig{
		Roles: 16, Shape: shape, Branch: 3,
		SSDFraction: 1, DSDFraction: 0.5,
		Users: 24, PermsPerRole: 2, CardinalityEvery: 4, Seed: seed,
	})
}

func runBoth(t *testing.T, spec *policy.Spec, reqs []Request) (owte, base *Driver, sys *activerbac.System, eng *baseline.Engine) {
	t.Helper()
	epoch := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

	sys, err := activerbac.Open(policy.Format(spec), &activerbac.Options{
		Clock: clock.NewSim(epoch),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	eng, err = baseline.New(clock.NewSim(epoch), spec)
	if err != nil {
		t.Fatal(err)
	}

	owte = NewDriver(sys)
	base = NewDriver(eng)
	if err := owte.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if err := base.Run(reqs); err != nil {
		t.Fatal(err)
	}
	return owte, base, sys, eng
}

func TestDifferentialOutcomes(t *testing.T) {
	for _, shape := range []Shape{Flat, Chain, Tree, XYZShape} {
		for seed := int64(0); seed < 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", shape, seed), func(t *testing.T) {
				spec := diffSpec(seed, shape)
				reqs := Stream(spec, DefaultMix, 1500, seed*31+7)
				owte, base, sys, eng := runBoth(t, spec, reqs)

				if owte.Allowed != base.Allowed || owte.Denied != base.Denied {
					t.Fatalf("CheckAccess tallies diverge: owte=%d/%d baseline=%d/%d",
						owte.Allowed, owte.Denied, base.Allowed, base.Denied)
				}
				if owte.Errors != base.Errors {
					t.Fatalf("state-change error tallies diverge: owte=%d baseline=%d",
						owte.Errors, base.Errors)
				}

				// Final state: identical assignments and identical
				// active role sets, user by user.
				for _, u := range spec.Users {
					user := rbac.UserID(u.Name)
					oAssigned, err := sys.AssignedRoles(user)
					if err != nil {
						t.Fatal(err)
					}
					bAssigned, err := eng.Store().AssignedRoles(user)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(oAssigned) != fmt.Sprint(bAssigned) {
						t.Fatalf("assignments diverge for %s: owte=%v baseline=%v",
							user, oAssigned, bAssigned)
					}
					oSid, bSid := owte.sessions[user], base.sessions[user]
					if (oSid == "") != (bSid == "") {
						t.Fatalf("session existence diverges for %s", user)
					}
					if oSid == "" {
						continue
					}
					oRoles, err := sys.SessionRoles(oSid)
					if err != nil {
						t.Fatal(err)
					}
					bRoles, err := eng.Store().SessionRoles(bSid)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(oRoles) != fmt.Sprint(bRoles) {
						t.Fatalf("active roles diverge for %s: owte=%v baseline=%v",
							user, oRoles, bRoles)
					}
				}

				// Both stores stay internally consistent.
				if errs := sys.CheckInvariants(); len(errs) != 0 {
					t.Fatalf("OWTE invariants: %v", errs)
				}
				if errs := eng.Store().CheckInvariants(); len(errs) != 0 {
					t.Fatalf("baseline invariants: %v", errs)
				}
			})
		}
	}
}

// TestDifferentialDecisionByDecision replays a stream one request at a
// time and compares each CheckAccess verdict individually, catching
// divergences that cancel out in aggregate tallies.
func TestDifferentialDecisionByDecision(t *testing.T) {
	spec := diffSpec(99, XYZShape)
	reqs := Stream(spec, Mix{Check: 60, Activate: 25, Drop: 15}, 800, 123)
	epoch := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

	sys, err := activerbac.Open(policy.Format(spec), &activerbac.Options{Clock: clock.NewSim(epoch)})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	eng, err := baseline.New(clock.NewSim(epoch), spec)
	if err != nil {
		t.Fatal(err)
	}
	owte := NewDriver(sys)
	base := NewDriver(eng)

	for i, r := range reqs {
		oBefore := owte.Allowed
		bBefore := base.Allowed
		if err := owte.Do(r); err != nil {
			t.Fatal(err)
		}
		if err := base.Do(r); err != nil {
			t.Fatal(err)
		}
		if r.Kind == CheckAccess {
			oVerdict := owte.Allowed > oBefore
			bVerdict := base.Allowed > bBefore
			if oVerdict != bVerdict {
				t.Fatalf("request %d (%+v): owte allowed=%v baseline allowed=%v",
					i, r, oVerdict, bVerdict)
			}
		}
	}
}

// TestConcurrentStressDifferential hammers the public System from 64
// goroutines — one per user, each owning one session and a
// deterministic mixed CreateSession / AddActiveRole / DropActiveRole /
// CheckAccess sequence — on one engine at once, then replays every
// sequence serially into the direct-check baseline and compares the
// per-session outcome sequences op by op. The spec keeps to features
// whose verdicts are per-session (DSD, hierarchy, SSD without
// assignment churn) so outcomes cannot depend on goroutine
// interleaving; the test is a -race workout for the drain as much as a
// semantic check.
func TestConcurrentStressDifferential(t *testing.T) {
	const (
		nUsers = 64
		nOps   = 150
	)
	spec := MustEnterprise(EnterpriseConfig{
		Roles: 16, Shape: XYZShape, Branch: 4,
		SSDFraction: 1, DSDFraction: 0.5,
		Users: nUsers, PermsPerRole: 2, Seed: 11,
	})
	epoch := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	sys, err := activerbac.Open(policy.Format(spec), &activerbac.Options{
		Clock: clock.NewSim(epoch),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	type op struct {
		kind              RequestKind
		role              rbac.RoleID
		operation, object string
	}
	genOps := func(u policy.User, seed int64) []op {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]op, 0, nOps)
		for i := 0; i < nOps; i++ {
			role := spec.Roles[rng.Intn(len(spec.Roles))]
			if len(u.Roles) > 0 && rng.Intn(8) != 0 { // mostly own roles, sometimes foreign (deny path)
				role = u.Roles[rng.Intn(len(u.Roles))]
			}
			switch rng.Intn(5) {
			case 0, 1:
				ops = append(ops, op{kind: Activate, role: rbac.RoleID(role)})
			case 2:
				ops = append(ops, op{kind: Drop, role: rbac.RoleID(role)})
			default:
				p := spec.Permissions[rng.Intn(len(spec.Permissions))]
				ops = append(ops, op{kind: CheckAccess, operation: p.Operation, object: p.Object})
			}
		}
		return ops
	}
	runSeq := func(enf baseline.Enforcer, u policy.User, ops []op) ([]bool, error) {
		user := rbac.UserID(u.Name)
		sid, err := enf.CreateSession(user)
		if err != nil {
			return nil, err
		}
		out := make([]bool, len(ops))
		for i, o := range ops {
			switch o.kind {
			case Activate:
				out[i] = enf.AddActiveRole(user, sid, o.role) == nil
			case Drop:
				out[i] = enf.DropActiveRole(user, sid, o.role) == nil
			default:
				out[i] = enf.CheckAccess(sid, rbac.Permission{Operation: o.operation, Object: o.object})
			}
		}
		return out, nil
	}

	allOps := make([][]op, nUsers)
	for i, u := range spec.Users {
		allOps[i] = genOps(u, int64(i)*977+13)
	}

	got := make([][]bool, nUsers)
	errs := make([]error, nUsers)
	var wg sync.WaitGroup
	for i := range spec.Users {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = runSeq(sys, spec.Users[i], allOps[i])
		}(i)
	}
	wg.Wait()
	sys.Quiesce()

	eng, err := baseline.New(clock.NewSim(epoch), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range spec.Users {
		if errs[i] != nil {
			t.Fatalf("goroutine %d (%s): %v", i, u.Name, errs[i])
		}
		want, err := runSeq(eng, u, allOps[i])
		if err != nil {
			t.Fatalf("baseline replay %s: %v", u.Name, err)
		}
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("user %s op %d (%+v): concurrent=%v baseline=%v",
					u.Name, j, allOps[i][j], got[i][j], want[j])
			}
		}
	}

	if errsI := sys.CheckInvariants(); len(errsI) != 0 {
		t.Fatalf("invariants after stress: %v", errsI)
	}
	if q := sys.Stats().Queued; q != 0 {
		t.Fatalf("%d work items still queued after Quiesce", q)
	}
}
