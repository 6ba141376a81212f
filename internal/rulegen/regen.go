package rulegen

import (
	"fmt"
	"sort"
	"strings"

	"activerbac/internal/policy"
	"activerbac/internal/rbac"
)

// Regeneration — the paper's Section 5 manageability claim: "when there
// is a change in the policy ... it can be easily changed in the high
// level specification and the corresponding rules can be regenerated
// ... without burdening the administrator".
//
// Apply diffs the new spec against the current one, edits exactly the
// affected state, removes exactly the affected rules (by tag) and
// regenerates them from the new access specification graph. Full
// generation is the same path: Apply from the empty policy a new
// Generator starts with.

// Report summarizes one Apply.
type Report struct {
	// RolesAdded / RolesRemoved / RolesRegenerated list the roles whose
	// rule sets changed.
	RolesAdded, RolesRemoved, RolesRegenerated []string
	// UsersAdded / UsersRemoved list user-set changes.
	UsersAdded, UsersRemoved []string
	// RulesRemoved / RulesAdded count rule-pool mutations.
	RulesRemoved, RulesAdded int
}

// Touched reports how many roles the regeneration had to visit — the
// incremental-cost metric of experiment E4.
func (r Report) Touched() int {
	return len(r.RolesAdded) + len(r.RolesRemoved) + len(r.RolesRegenerated)
}

// String summarizes the report.
func (r Report) String() string {
	return fmt.Sprintf("regenerated=%d added=%d removed=%d rules(-%d/+%d)",
		len(r.RolesRegenerated), len(r.RolesAdded), len(r.RolesRemoved),
		r.RulesRemoved, r.RulesAdded)
}

// Apply transitions the engine from the current policy to newSpec,
// regenerating only what the diff touches. Every store edit runs in one
// policy transaction, so the access view is published once, when Apply
// returns. On error the engine may be partially transitioned (and that
// state is published); callers treat Apply errors as fatal for the
// engine instance (build a fresh one with New).
func (g *Generator) Apply(newSpec *policy.Spec) (rep Report, err error) {
	err = g.eng.Store().Update(func(tx *rbac.Tx) error {
		rep, err = g.ApplyTx(tx, newSpec)
		return err
	})
	return rep, err
}

// ApplyTx is Apply inside the caller's policy transaction, for callers
// that make further store edits to publish with the regeneration.
func (g *Generator) ApplyTx(tx *rbac.Tx, newSpec *policy.Spec) (Report, error) {
	var rep Report
	if issues := policy.Check(newSpec); policy.HasErrors(issues) {
		return rep, fmt.Errorf("rulegen: new policy has errors: %v", issues)
	}
	newGraph, err := policy.BuildGraph(newSpec)
	if err != nil {
		return rep, err
	}
	old := g.spec
	pool := g.eng.Pool()

	oldRoles := old.RoleSet()
	newRoles := newSpec.RoleSet()

	// ---- Role set changes -------------------------------------------
	for _, r := range old.Roles {
		if !newRoles[r] {
			rep.RolesRemoved = append(rep.RolesRemoved, r)
		}
	}
	for _, r := range newSpec.Roles {
		if !oldRoles[r] {
			rep.RolesAdded = append(rep.RolesAdded, r)
		}
	}

	// ---- Global relation diffs (state only) --------------------------
	// Hierarchy edges.
	oldEdges := edgeSet(old.Hierarchy)
	newEdges := edgeSet(newSpec.Hierarchy)
	for e := range oldEdges {
		if !newEdges[e] && newRoles[e.Senior] && newRoles[e.Junior] {
			if err := tx.DeleteInheritance(rbac.RoleID(e.Senior), rbac.RoleID(e.Junior)); err != nil {
				return rep, err
			}
		}
	}
	// SoD sets: delete removed or modified ones now, while the roles
	// they reference may still exist. Creation waits until after role
	// additions — a new set may reference a role this same apply
	// introduces (the common case when a replica installs a full policy
	// over an empty bootstrap system).
	ssdCreates, err := diffSoDSets(old.SSD, newSpec.SSD, tx.DeleteSSD)
	if err != nil {
		return rep, err
	}
	dsdCreates, err := diffSoDSets(old.DSD, newSpec.DSD, tx.DeleteDSD)
	if err != nil {
		return rep, err
	}

	// Remove state for removed roles (also detaches their SoD and
	// hierarchy remnants) and their rules.
	for _, r := range rep.RolesRemoved {
		role := rbac.RoleID(r)
		if id, ok := g.schedules[role]; ok {
			if err := g.gt.CancelSchedule(id); err != nil {
				return rep, err
			}
			delete(g.schedules, role)
		}
		rep.RulesRemoved += pool.RemoveByTag(TagRole(role))
		if err := tx.DeleteRole(role); err != nil {
			return rep, err
		}
	}
	// Add state for added roles.
	for _, r := range rep.RolesAdded {
		if err := tx.AddRole(rbac.RoleID(r)); err != nil {
			return rep, err
		}
		if err := g.gt.RegisterRole(rbac.RoleID(r)); err != nil {
			return rep, err
		}
	}
	// New hierarchy edges (after role additions).
	for e := range newEdges {
		if !oldEdges[e] {
			if err := tx.AddInheritance(rbac.RoleID(e.Senior), rbac.RoleID(e.Junior)); err != nil {
				return rep, err
			}
		}
	}
	// (Re)create changed SoD sets, now that added roles exist.
	for _, s := range ssdCreates {
		if err := tx.CreateSSD(toSoDSet(s)); err != nil {
			return rep, err
		}
	}
	for _, s := range dsdCreates {
		if err := tx.CreateDSD(toSoDSet(s)); err != nil {
			return rep, err
		}
	}

	// Permissions diff.
	oldPerms := permSet(old.Permissions)
	newPerms := permSet(newSpec.Permissions)
	for p := range oldPerms {
		if !newPerms[p] && newRoles[p.Role] {
			if err := tx.RevokePermission(rbac.RoleID(p.Role), rbac.Permission{Operation: p.Operation, Object: p.Object}); err != nil {
				return rep, err
			}
		}
	}
	for p := range newPerms {
		if !oldPerms[p] {
			if err := tx.GrantPermission(rbac.RoleID(p.Role), rbac.Permission{Operation: p.Operation, Object: p.Object}); err != nil {
				return rep, err
			}
		}
	}

	// Time SoDs: recreate changed.
	oldTS := timeSoDMap(old.TimeSoDs)
	newTS := timeSoDMap(newSpec.TimeSoDs)
	for name, ts := range oldTS {
		if nts, ok := newTS[name]; ok && timeSoDFp(nts) == timeSoDFp(ts) {
			continue
		}
		if err := g.gt.RemoveDisablingTimeSoD(name); err != nil {
			return rep, err
		}
	}
	for name, ts := range newTS {
		if ots, ok := oldTS[name]; ok && timeSoDFp(ots) == timeSoDFp(ts) {
			continue
		}
		roles := make([]rbac.RoleID, len(ts.Roles))
		for i, r := range ts.Roles {
			roles[i] = rbac.RoleID(r)
		}
		if err := g.gt.AddDisablingTimeSoD(name, roles, ts.Window()); err != nil {
			return rep, err
		}
	}

	// CFD diffs.
	oldCouples, newCouples := coupleSet(old.Couples), coupleSet(newSpec.Couples)
	for c := range oldCouples {
		if !newCouples[c] && newRoles[c.Lead] && newRoles[c.Follow] {
			if err := g.cf.RemoveCouple(rbac.RoleID(c.Lead), rbac.RoleID(c.Follow)); err != nil {
				return rep, err
			}
		}
	}
	for c := range newCouples {
		if !oldCouples[c] {
			if err := g.cf.CoupleEnable(rbac.RoleID(c.Lead), rbac.RoleID(c.Follow)); err != nil {
				return rep, err
			}
		}
	}
	oldReq, newReq := requireMap(old.Requires), requireMap(newSpec.Requires)
	for dep, req := range oldReq {
		if newReq[dep] != req && newRoles[dep] {
			if err := g.cf.RemoveActivationDependency(rbac.RoleID(dep)); err != nil {
				return rep, err
			}
		}
	}
	for dep, req := range newReq {
		if oldReq[dep] != req {
			if err := g.cf.AddActivationDependency(rbac.RoleID(dep), rbac.RoleID(req)); err != nil {
				return rep, err
			}
		}
	}
	oldPre, newPre := prereqSet(old.Prereqs), prereqSet(newSpec.Prereqs)
	for p := range oldPre {
		if !newPre[p] && newRoles[p.Role] && newRoles[p.Prereq] {
			if err := g.cf.RemovePrerequisite(rbac.RoleID(p.Role), rbac.RoleID(p.Prereq)); err != nil {
				return rep, err
			}
		}
	}
	for p := range newPre {
		if !oldPre[p] {
			if err := g.cf.AddPrerequisite(rbac.RoleID(p.Role), rbac.RoleID(p.Prereq)); err != nil {
				return rep, err
			}
		}
	}

	// Privacy: purposes are append-only across regenerations.
	oldPurp, newPurp := purposeSet(old.Purposes), purposeSet(newSpec.Purposes)
	for _, p := range old.Purposes {
		if !newPurp[p.Name+"<"+p.Parent] {
			return rep, fmt.Errorf("rulegen: purpose %q removed or reparented; purposes are append-only, rebuild the engine", p.Name)
		}
	}
	for _, p := range newSpec.Purposes {
		if !oldPurp[p.Name+"<"+p.Parent] {
			if err := g.pa.AddPurpose(p.Name, p.Parent); err != nil {
				return rep, err
			}
		}
	}
	oldBind, newBind := bindingSet(old.Bindings), bindingSet(newSpec.Bindings)
	for b := range oldBind {
		if !newBind[b] && newRoles[b.Role] {
			if err := g.pa.UnbindPurpose(rbac.RoleID(b.Role),
				rbac.Permission{Operation: b.Operation, Object: b.Object}, b.Purpose); err != nil {
				return rep, err
			}
		}
	}
	for b := range newBind {
		if !oldBind[b] {
			if err := g.pa.BindPurpose(rbac.RoleID(b.Role),
				rbac.Permission{Operation: b.Operation, Object: b.Object}, b.Purpose); err != nil {
				return rep, err
			}
		}
	}
	oldConsent, newConsent := stringSet(old.ConsentRequired), stringSet(newSpec.ConsentRequired)
	for obj := range oldConsent {
		if !newConsent[obj] {
			g.pa.SetConsentRequired(obj, false)
		}
	}
	for obj := range newConsent {
		if !oldConsent[obj] {
			g.pa.SetConsentRequired(obj, true)
		}
	}

	// Thresholds: recreate changed.
	oldTh, newTh := thresholdMap(old.Thresholds), thresholdMap(newSpec.Thresholds)
	for name, th := range oldTh {
		if nth, ok := newTh[name]; ok && nth == th {
			continue
		}
		if err := g.mon.RemoveThreshold(name); err != nil {
			return rep, err
		}
	}
	for name, th := range newTh {
		if oth, ok := oldTh[name]; ok && oth == th {
			continue
		}
		if err := g.mon.AddThreshold(th.Name, th.Count, th.Window, th.Action); err != nil {
			return rep, err
		}
	}

	// Reports: stop removed/changed schedules, start new ones.
	if err := g.diffReports(old, newSpec); err != nil {
		return rep, err
	}

	// ---- Generate rules for added and changed roles --------------------
	g.spec, g.graph = newSpec, newGraph
	// Fingerprints only decide for roles both specs declare.
	var oldFp, newFp map[string]string
	if len(old.Roles) > 0 {
		oldFp, newFp = fingerprints(old), fingerprints(newSpec)
	}
	card := make(map[string]int, len(newSpec.Cardinalities))
	for _, c := range newSpec.Cardinalities {
		card[c.Role] = c.N
	}
	for _, r := range newSpec.Roles {
		role := rbac.RoleID(r)
		if oldRoles[r] {
			if oldFp[r] == newFp[r] {
				continue
			}
			rep.RolesRegenerated = append(rep.RolesRegenerated, r)
			// Drop the old rules and schedule; they regenerate below.
			if id, ok := g.schedules[role]; ok {
				if err := g.gt.CancelSchedule(id); err != nil {
					return rep, err
				}
				delete(g.schedules, role)
			}
			rep.RulesRemoved += pool.RemoveByTag(TagRole(role))
		}
		// Role-scoped store knobs first, then the rules from the new graph.
		if err := tx.SetRoleCardinality(role, card[r]); err != nil {
			return rep, err
		}
		before := pool.Len()
		if err := g.generateRole(role); err != nil {
			return rep, err
		}
		rep.RulesAdded += pool.Len() - before
	}

	// ---- Users --------------------------------------------------------
	oldUsers := userMap(old.Users)
	newUsers := userMap(newSpec.Users)
	for name := range oldUsers {
		if _, ok := newUsers[name]; !ok {
			rep.UsersRemoved = append(rep.UsersRemoved, name)
			rep.RulesRemoved += pool.RemoveByTag(TagUser(rbac.UserID(name)))
			if err := tx.DeleteUser(rbac.UserID(name)); err != nil {
				return rep, err
			}
		}
	}
	for name, u := range newUsers {
		ou, existed := oldUsers[name]
		if !existed {
			rep.UsersAdded = append(rep.UsersAdded, name)
			if err := tx.AddUser(rbac.UserID(name)); err != nil {
				return rep, err
			}
		}
		oldAssigned := stringSet(ou.Roles)
		newAssigned := stringSet(u.Roles)
		for r := range oldAssigned {
			if !newAssigned[r] && newRoles[r] {
				if err := tx.DeassignUser(rbac.UserID(name), rbac.RoleID(r)); err != nil {
					return rep, err
				}
			}
		}
		for r := range newAssigned {
			if !oldAssigned[r] {
				if err := tx.AssignUser(rbac.UserID(name), rbac.RoleID(r)); err != nil {
					return rep, err
				}
			}
		}
	}
	// MaxRoles: regenerate specialized rules when changed.
	oldMax, newMax := maxRolesMap(old.MaxRoles), maxRolesMap(newSpec.MaxRoles)
	maxChanged := false
	for u, n := range oldMax {
		if newMax[u] != n {
			maxChanged = true
			if err := tx.SetUserMaxActiveRoles(rbac.UserID(u), newMax[u]); err != nil && newMax[u] != 0 {
				return rep, err
			}
		}
	}
	for u, n := range newMax {
		if oldMax[u] != n {
			maxChanged = true
			if !tx.UserExists(rbac.UserID(u)) {
				if err := tx.AddUser(rbac.UserID(u)); err != nil {
					return rep, err
				}
			}
			if err := tx.SetUserMaxActiveRoles(rbac.UserID(u), n); err != nil {
				return rep, err
			}
		}
	}
	// Durations feed the temporal manager directly.
	oldDur, newDur := durationMap(old.Durations), durationMap(newSpec.Durations)
	for k := range oldDur {
		if _, ok := newDur[k]; !ok && newRoles[k.Role] {
			u := rbac.UserID(k.User)
			if k.User == "*" {
				u = ""
			}
			if err := g.gt.SetActivationDuration(u, rbac.RoleID(k.Role), 0); err != nil {
				return rep, err
			}
		}
	}
	for k, d := range newDur {
		if oldDur[k] != d {
			u := rbac.UserID(k.User)
			if k.User == "*" {
				u = ""
			}
			if err := g.gt.SetActivationDuration(u, rbac.RoleID(k.Role), d.D); err != nil {
				return rep, err
			}
		}
	}

	// Regenerate specialized rules if any maxroles entry changed.
	if maxChanged {
		for u := range oldMax {
			rep.RulesRemoved += pool.RemoveByTag(TagUser(rbac.UserID(u)))
		}
		for u := range newMax {
			rep.RulesRemoved += pool.RemoveByTag(TagUser(rbac.UserID(u)))
		}
		before := pool.Len()
		if err := g.generateSpecializedRules(newSpec); err != nil {
			return rep, err
		}
		rep.RulesAdded += pool.Len() - before
	}

	sort.Strings(rep.RolesAdded)
	sort.Strings(rep.RolesRemoved)
	sort.Strings(rep.RolesRegenerated)
	return rep, nil
}

// fingerprints summarizes, per role, everything that affects its
// generated rules; two specs with equal fingerprints for a role need no
// regeneration for it. Computed in one pass over the spec (plus one
// upward walk per SoD member for flag propagation), so incremental
// regeneration stays cheap on large enterprises.
//
// A role's rules depend on: its direct hierarchy edges (the Hierarchy
// flag), the SoD sets visible from it through the junior closure (the
// AAR variant — conditions consult live store state at runtime, so
// deeper structure does not change rule *content*), its cardinality,
// shift, durations, time SoDs, and CFD constraints.
func fingerprints(s *policy.Spec) map[string]string {
	parts := make(map[string][]string, len(s.Roles))
	add := func(role, item string) {
		parts[role] = append(parts[role], item)
	}

	seniors := make(map[string][]string, len(s.Hierarchy))
	for _, e := range s.Hierarchy {
		item := "h:" + e.Senior + ">" + e.Junior
		add(e.Senior, item)
		add(e.Junior, item)
		seniors[e.Junior] = append(seniors[e.Junior], e.Senior)
	}

	// SoD sets mark every member and propagate to all ancestors.
	markUp := func(start, item string) {
		seen := map[string]bool{start: true}
		stack := []string{start}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			add(cur, item)
			for _, sr := range seniors[cur] {
				if !seen[sr] {
					seen[sr] = true
					stack = append(stack, sr)
				}
			}
		}
	}
	for _, set := range s.SSD {
		item := fmt.Sprintf("ssd:%s:%d:%v", set.Name, set.N, set.Roles)
		for _, r := range set.Roles {
			markUp(r, item)
		}
	}
	for _, set := range s.DSD {
		item := fmt.Sprintf("dsd:%s:%d:%v", set.Name, set.N, set.Roles)
		for _, r := range set.Roles {
			markUp(r, item)
		}
	}

	for _, c := range s.Cardinalities {
		add(c.Role, fmt.Sprintf("card:%d", c.N))
	}
	for _, sh := range s.Shifts {
		add(sh.Role, fmt.Sprintf("shift:%s-%s", sh.Start, sh.Stop))
	}
	for _, d := range s.Durations {
		add(d.Role, fmt.Sprintf("dur:%s:%s", d.User, d.D))
	}
	for _, ts := range s.TimeSoDs {
		item := fmt.Sprintf("tsod:%s:%s-%s:%v", ts.Name, ts.Start, ts.Stop, ts.Roles)
		for _, r := range ts.Roles {
			add(r, item)
		}
	}
	for _, c := range s.Couples {
		item := "couple:" + c.Lead + ">" + c.Follow
		add(c.Lead, item)
		add(c.Follow, item)
	}
	for _, rq := range s.Requires {
		item := "req:" + rq.Dependent + ":" + rq.Required
		add(rq.Dependent, item)
		add(rq.Required, item)
	}
	for _, p := range s.Prereqs {
		item := "pre:" + p.Role + ":" + p.Prereq
		add(p.Role, item)
		add(p.Prereq, item)
	}
	for _, c := range s.Contexts {
		add(c.Role, "ctx:"+c.Key+"="+c.Value)
	}

	out := make(map[string]string, len(s.Roles))
	for _, r := range s.Roles {
		items := parts[r]
		sort.Strings(items)
		out[r] = strings.Join(items, ";")
	}
	return out
}

// diffSoDSets deletes removed or modified SoD relations and returns
// the new or modified ones still to create — the caller creates them
// only after role additions have landed, since a changed set may
// reference a role the same apply introduces.
func diffSoDSets(old, new []policy.SoD, del func(string) error) ([]policy.SoD, error) {
	fp := func(s policy.SoD) string { return fmt.Sprintf("%d|%v", s.N, s.Roles) }
	oldM := make(map[string]policy.SoD, len(old))
	for _, s := range old {
		oldM[s.Name] = s
	}
	newM := make(map[string]policy.SoD, len(new))
	for _, s := range new {
		newM[s.Name] = s
	}
	for name, s := range oldM {
		if ns, ok := newM[name]; ok && fp(ns) == fp(s) {
			continue
		}
		if err := del(name); err != nil {
			return nil, err
		}
	}
	var creates []policy.SoD
	for _, s := range new {
		if os, ok := oldM[s.Name]; ok && fp(os) == fp(s) {
			continue
		}
		creates = append(creates, s)
	}
	return creates, nil
}

// ---------------------------------------------------------------------------
// Diff-set helpers

func edgeSet(edges []policy.Edge) map[policy.Edge]bool {
	m := make(map[policy.Edge]bool, len(edges))
	for _, e := range edges {
		m[e] = true
	}
	return m
}

func permSet(perms []policy.Perm) map[policy.Perm]bool {
	m := make(map[policy.Perm]bool, len(perms))
	for _, p := range perms {
		m[p] = true
	}
	return m
}

func coupleSet(cs []policy.Couple) map[policy.Couple]bool {
	m := make(map[policy.Couple]bool, len(cs))
	for _, c := range cs {
		m[c] = true
	}
	return m
}

func requireMap(rs []policy.Require) map[string]string {
	m := make(map[string]string, len(rs))
	for _, r := range rs {
		m[r.Dependent] = r.Required
	}
	return m
}

func prereqSet(ps []policy.Prereq) map[policy.Prereq]bool {
	m := make(map[policy.Prereq]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func purposeSet(ps []policy.Purpose) map[string]bool {
	m := make(map[string]bool, len(ps))
	for _, p := range ps {
		m[p.Name+"<"+p.Parent] = true
	}
	return m
}

func bindingSet(bs []policy.Binding) map[policy.Binding]bool {
	m := make(map[policy.Binding]bool, len(bs))
	for _, b := range bs {
		m[b] = true
	}
	return m
}

func stringSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func thresholdMap(ths []policy.Threshold) map[string]policy.Threshold {
	m := make(map[string]policy.Threshold, len(ths))
	for _, t := range ths {
		m[t.Name] = t
	}
	return m
}

func userMap(us []policy.User) map[string]policy.User {
	m := make(map[string]policy.User, len(us))
	for _, u := range us {
		m[u.Name] = u
	}
	return m
}

func maxRolesMap(ms []policy.MaxRoles) map[string]int {
	m := make(map[string]int, len(ms))
	for _, x := range ms {
		m[x.User] = x.N
	}
	return m
}

func durationMap(ds []policy.Duration) map[policy.Duration]policy.Duration {
	m := make(map[policy.Duration]policy.Duration, len(ds))
	for _, d := range ds {
		key := policy.Duration{User: d.User, Role: d.Role}
		m[key] = d
	}
	return m
}

func timeSoDMap(ts []policy.TimeSoD) map[string]policy.TimeSoD {
	m := make(map[string]policy.TimeSoD, len(ts))
	for _, t := range ts {
		m[t.Name] = t
	}
	return m
}

func timeSoDFp(t policy.TimeSoD) string {
	return fmt.Sprintf("%s|%s|%v", t.Start, t.Stop, t.Roles)
}
