package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"activerbac/internal/baseline"
	"activerbac/internal/clock"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
	"activerbac/internal/workload"
)

// sess is one planned session. The oracle decides at generation time
// whether its activation succeeds; set-up creates it on the server and
// records the server's id.
type sess struct {
	user, role string
	wantActive bool
	osid       rbac.SessionID // the oracle's id
	sid        string         // the server's id, set by set-up
}

// tuple is one access check with the verdict the oracle gives it.
type tuple struct {
	s    *sess
	perm rbac.Permission
	want bool
}

// plan is everything a run feeds the server, made from the seed alone.
type plan struct {
	spec   *policy.Spec
	source string
	// oracle mirrors every session, activation and mutation the run
	// performs. churn_mixed mutates it from two callers, so every use
	// after generation holds mu.
	mu     sync.Mutex
	oracle *baseline.Engine

	sessions []*sess
	probes   []*sess // sessions whose activation succeeded
	// rolePerms is the effective permission set of a session holding
	// exactly that role, as the oracle sees it, sorted for determinism.
	rolePerms map[string][]rbac.Permission

	// reload_fleet only: the second policy variant and an oracle built
	// from it over the same sessions.
	variant   string
	altOracle *baseline.Engine
}

func newOracle(spec *policy.Spec) (*baseline.Engine, error) {
	return baseline.New(clock.NewReal(), spec)
}

// newPlan generates the policy and nSessions sessions (round-robin over
// the users, each activating its user's assigned role) and applies them
// to a fresh oracle.
func newPlan(ent enterprise, nSessions int, seed int64) (*plan, error) {
	spec := workload.MustEnterprise(ent.config(seed))
	p := &plan{spec: spec, source: policy.Format(spec), rolePerms: map[string][]rbac.Permission{}}
	var err error
	if p.oracle, err = newOracle(spec); err != nil {
		return nil, err
	}
	if p.sessions, p.probes, err = planSessions(p.oracle, spec, nSessions); err != nil {
		return nil, err
	}
	p.prime()
	return p, nil
}

// prime fills rolePerms for every role a user holds, so that callers
// running concurrently only ever read it.
func (p *plan) prime() {
	p.rolePerms = map[string][]rbac.Permission{}
	for _, u := range p.spec.Users {
		p.permsOf(u.Roles[0])
	}
}

func planSessions(oracle *baseline.Engine, spec *policy.Spec, n int) (all, probes []*sess, err error) {
	for i := 0; i < n; i++ {
		u := spec.Users[i%len(spec.Users)]
		s := &sess{user: u.Name, role: u.Roles[0]}
		if s.osid, err = oracle.CreateSession(rbac.UserID(s.user)); err != nil {
			return nil, nil, fmt.Errorf("oracle: create session for %s: %w", s.user, err)
		}
		// A denial here is policy (a cardinality bound already used up),
		// not a failure: the server must deny the same activation.
		s.wantActive = oracle.AddActiveRole(rbac.UserID(s.user), s.osid, rbac.RoleID(s.role)) == nil
		all = append(all, s)
		if s.wantActive {
			probes = append(probes, s)
		}
	}
	if len(probes) == 0 {
		return nil, nil, fmt.Errorf("plan: no session could activate a role")
	}
	return all, probes, nil
}

// permsOf returns the permissions a session holding only role may use.
func (p *plan) permsOf(role string) []rbac.Permission {
	if ps, ok := p.rolePerms[role]; ok {
		return ps
	}
	var probe *sess
	for _, s := range p.probes {
		if s.role == role {
			probe = s
			break
		}
	}
	var ps []rbac.Permission
	if probe != nil {
		for _, sp := range p.spec.Permissions {
			perm := rbac.Permission{Operation: sp.Operation, Object: sp.Object}
			if p.oracle.CheckAccess(probe.osid, perm) {
				ps = append(ps, perm)
			}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Object != ps[j].Object {
				return ps[i].Object < ps[j].Object
			}
			return ps[i].Operation < ps[j].Operation
		})
	}
	p.rolePerms[role] = ps
	return ps
}

// allowTuple picks a permission the session holds.
func (p *plan) allowTuple(rng *rand.Rand, s *sess) tuple {
	ps := p.permsOf(s.role)
	return tuple{s: s, perm: ps[rng.Intn(len(ps))], want: true}
}

// denyTuple picks a granted-to-someone permission the session does not
// hold, so the server walks the same rule as for an allow.
func (p *plan) denyTuple(rng *rand.Rand, s *sess) tuple {
	held := p.permsOf(s.role)
	for {
		sp := p.spec.Permissions[rng.Intn(len(p.spec.Permissions))]
		perm := rbac.Permission{Operation: sp.Operation, Object: sp.Object}
		i := sort.Search(len(held), func(i int) bool {
			if held[i].Object != perm.Object {
				return held[i].Object >= perm.Object
			}
			return held[i].Operation >= perm.Operation
		})
		if i == len(held) || held[i] != perm {
			return tuple{s: s, perm: perm, want: false}
		}
	}
}

// hotStream builds the per-tuple request stream of hot_wire and
// reload_fleet: n requests, Zipf over at most hotTuples distinct
// allowed tuples, denyShare of them replaced by denials.
func (p *plan) hotStream(rng *rand.Rand, n int) []tuple {
	seen := map[string]bool{}
	var hot []tuple
	want := min(hotTuples, p.allowedUniverse())
	for len(hot) < want {
		t := p.allowTuple(rng, p.probes[rng.Intn(len(p.probes))])
		key := string(t.s.osid) + "\x00" + t.perm.Operation + "\x00" + t.perm.Object
		if !seen[key] {
			seen[key] = true
			hot = append(hot, t)
		}
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(hot)-1))
	out := make([]tuple, n)
	for i := range out {
		t := hot[zipf.Uint64()]
		if rng.Float64() < denyShare {
			t = p.denyTuple(rng, t.s)
		}
		out[i] = t
	}
	return out
}

// fillBatch writes one single-session batch into reqs/wants: the
// question "which of these objects may this session touch".
func (p *plan) fillBatch(rng *rand.Rand, frame []tuple) {
	s := p.probes[rng.Intn(len(p.probes))]
	for i := range frame {
		if rng.Float64() < batchDenyShare {
			frame[i] = p.denyTuple(rng, s)
		} else {
			frame[i] = p.allowTuple(rng, s)
		}
	}
}

// allowedUniverse counts the distinct allowed tuples the probes span.
func (p *plan) allowedUniverse() int {
	n := 0
	for _, s := range p.probes {
		n += len(p.permsOf(s.role))
	}
	return n
}

// addReloadVariant derives the two policies reload_fleet alternates:
// the paper's "day doctor" edit. Both carry an extra shift role nobody
// holds; the second moves its window and changes its cardinality bound.
// No verdict on any held role changes, which the second oracle
// confirms for every tuple a stream asks (see sameUnderVariant).
//
// The edit is deliberately limited to changes the store applies
// idempotently. A SYNC export that interleaves with the leader's
// ApplyPolicy pairs the old policy text with half-new state, and the
// replica then wedges on the first non-idempotent step of the next
// install ("role already exists"); README.md lists that under "found
// while building", and fixing it is not this benchmark's business.
func (p *plan) addReloadVariant() error {
	base, edited := withDayDoctor(p.spec, "07:00:00", "19:00:00", 2), withDayDoctor(p.spec, "08:00:00", "20:00:00", 3)
	for _, s := range []*policy.Spec{base, edited} {
		if issues := policy.Check(s); policy.HasErrors(issues) {
			return fmt.Errorf("plan: reload variant inconsistent: %v", issues)
		}
	}
	n := len(p.sessions)
	var err error
	if p.oracle, err = newOracle(base); err != nil {
		return err
	}
	if p.sessions, p.probes, err = planSessions(p.oracle, base, n); err != nil {
		return err
	}
	if p.altOracle, err = newOracle(edited); err != nil {
		return err
	}
	if _, _, err = planSessions(p.altOracle, edited, n); err != nil {
		return err
	}
	p.spec, p.source, p.variant = base, policy.Format(base), policy.Format(edited)
	p.prime()
	return nil
}

// withDayDoctor returns spec plus a role nobody holds that is enabled
// within the daily window and bounded to bound concurrent activations.
func withDayDoctor(spec *policy.Spec, start, stop string, bound int) *policy.Spec {
	const shiftRole = "day-doctor"
	v := *spec
	v.Roles = append(append([]string{}, spec.Roles...), shiftRole)
	v.Shifts = []policy.Shift{{Role: shiftRole, Start: clock.MustPattern(start), Stop: clock.MustPattern(stop)}}
	v.Cardinalities = append(append([]policy.Cardinality{}, spec.Cardinalities...), policy.Cardinality{Role: shiftRole, N: bound})
	return &v
}

// sameUnderVariant checks that the second policy variant gives every
// tuple the verdict the first does: the oracle's mirror of a reload.
// Both oracles number their sessions alike, having created them in the
// same order.
func (p *plan) sameUnderVariant(stream []tuple) error {
	for _, t := range stream {
		if got := p.altOracle.CheckAccess(t.s.osid, t.perm); got != t.want {
			return fmt.Errorf("plan: %s %v answers %v under the second variant, %v under the first", t.s.osid, t.perm, got, t.want)
		}
	}
	return nil
}
