package rulegen

import (
	"strings"
	"testing"
	"time"

	"activerbac/internal/clock"
	"activerbac/internal/event"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
	"activerbac/internal/sentinel"
)

func apply(t *testing.T, g *Generator, src string) Report {
	t.Helper()
	spec, err := policy.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := g.Apply(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestApplyIdenticalSpecTouchesNothing(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	before := g.Engine().Pool().Len()
	rep := apply(t, g, xyzPolicy)
	if rep.Touched() != 0 || rep.RulesAdded != 0 || rep.RulesRemoved != 0 {
		t.Fatalf("identical spec touched things: %s", rep)
	}
	if g.Engine().Pool().Len() != before {
		t.Fatal("pool size changed")
	}
}

// Generation is Apply from the empty policy a new Generator starts with.
func TestApplyOnFreshGenerator(t *testing.T) {
	g, err := New(sentinel.NewEngine(clock.NewSim(t0)))
	if err != nil {
		t.Fatal(err)
	}
	apply(t, g, xyzPolicy)
	checkXYZInventory(t, g)
}

func TestApplyRejectsBadSpec(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	spec, _ := policy.ParseString("role A\nrole A")
	if _, err := g.Apply(spec); err == nil {
		t.Fatal("Apply accepted inconsistent spec")
	}
}

// The paper's policy-change scenario: the day-doctor shift moves from
// 8-16 to 9-17; only that role's rules regenerate.
func TestApplyShiftChange(t *testing.T) {
	base := `
policy "hospital"
role DayDoctor
role Nurse
user dana: DayDoctor
shift DayDoctor 08:00:00-16:00:00
`
	changed := `
policy "hospital"
role DayDoctor
role Nurse
user dana: DayDoctor
shift DayDoctor 09:00:00-17:00:00
`
	g, sim := loadPolicy(t, base) // engine clock starts 09:00
	st := g.Engine().Store()
	if !st.RoleEnabled("DayDoctor") {
		t.Fatal("09:00 should be inside the old 8-16 shift")
	}
	rep := apply(t, g, changed)
	if len(rep.RolesRegenerated) != 1 || rep.RolesRegenerated[0] != "DayDoctor" {
		t.Fatalf("regenerated = %v, want [DayDoctor] only", rep.RolesRegenerated)
	}
	if rep.Touched() != 1 {
		t.Fatalf("Touched = %d", rep.Touched())
	}
	// The new shift drives enabling: 16:30 is inside 9-17 (the old
	// schedule would have disabled at 16:00).
	sim.AdvanceTo(time.Date(2026, 7, 6, 16, 30, 0, 0, time.UTC))
	if !st.RoleEnabled("DayDoctor") {
		t.Fatal("16:30 should be inside the new shift")
	}
	sim.AdvanceTo(time.Date(2026, 7, 6, 17, 0, 0, 0, time.UTC))
	if st.RoleEnabled("DayDoctor") {
		t.Fatal("17:00 should end the new shift")
	}
	// Activation still flows through the regenerated rules.
	sim.AdvanceTo(time.Date(2026, 7, 7, 10, 0, 0, 0, time.UTC))
	sid := newSession(t, g, "dana")
	if dec := activateReq(t, g, "dana", sid, "DayDoctor"); !dec.Allowed() {
		t.Fatalf("activation after regen denied: %s", dec.Reason())
	}
}

func TestApplyAddRole(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	rep := apply(t, g, xyzPolicy+"\nrole Intern\nhierarchy Clerk > Intern\n")
	if len(rep.RolesAdded) != 1 || rep.RolesAdded[0] != "Intern" {
		t.Fatalf("added = %v", rep.RolesAdded)
	}
	// Clerk gained a junior: its fingerprint changed (hierarchy), so it
	// regenerates; PM/PC above it too (closure). That is still far less
	// than the whole enterprise.
	if !g.Engine().Store().RoleExists("Intern") {
		t.Fatal("Intern missing from store")
	}
	// New role's rules are live: assign and activate.
	if dec := decide(t, g, EvAssignUser, event.Params{"user": "bob", "role": "Intern"}); !dec.Allowed() {
		t.Fatalf("assign Intern denied: %s", dec.Reason())
	}
	sid := newSession(t, g, "bob")
	if dec := activateReq(t, g, "bob", sid, "Intern"); !dec.Allowed() {
		t.Fatalf("activate Intern denied: %s", dec.Reason())
	}
}

func TestApplyRemoveRole(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	pruned := `
policy "enterprise-xyz"
role PM
role PC
role AM
role AC
hierarchy PM > PC
hierarchy AM > AC
ssd purchase-approval 2: PC, AC
permission PC: write purchase-order.dat
permission AC: approve purchase-order.dat
user bob: PC
user carol: AC
user alice: PM
cardinality PM 1
`
	rep := apply(t, g, pruned)
	if len(rep.RolesRemoved) != 1 || rep.RolesRemoved[0] != "Clerk" {
		t.Fatalf("removed = %v", rep.RolesRemoved)
	}
	if g.Engine().Store().RoleExists("Clerk") {
		t.Fatal("Clerk still in store")
	}
	if rep.RulesRemoved < 4 {
		t.Fatalf("RulesRemoved = %d, want >= 4 (Clerk's localized rules)", rep.RulesRemoved)
	}
	// Clerk's request events still exist but no rule handles them: deny.
	sid := newSession(t, g, "bob")
	if dec := activateReq(t, g, "bob", sid, "Clerk"); dec.Allowed() {
		t.Fatal("removed role still activatable")
	}
}

func TestApplyCardinalityChange(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	relaxed := apply(t, g, replaceLine(t, xyzPolicy, "cardinality PM 1", "cardinality PM 2"))
	if len(relaxed.RolesRegenerated) != 1 || relaxed.RolesRegenerated[0] != "PM" {
		t.Fatalf("regenerated = %v", relaxed.RolesRegenerated)
	}
	st := g.Engine().Store()
	if err := st.AddUser("dave"); err != nil {
		t.Fatal(err)
	}
	decide(t, g, EvAssignUser, event.Params{"user": "dave", "role": "PM"})
	sidA := newSession(t, g, "alice")
	sidD := newSession(t, g, "dave")
	if dec := activateReq(t, g, "alice", sidA, "PM"); !dec.Allowed() {
		t.Fatal("first activation denied")
	}
	if dec := activateReq(t, g, "dave", sidD, "PM"); !dec.Allowed() {
		t.Fatalf("second activation denied under relaxed cardinality: %s", dec.Reason())
	}
}

// A junior gaining SoD membership must flip the senior's AAR variant
// (the bottom-up flag propagation of Figure 1).
func TestApplySoDChangeFlipsSeniorVariant(t *testing.T) {
	base := `
policy "p"
role Boss
role Teller
role Auditor
hierarchy Boss > Teller
user eve: Boss, Auditor
`
	withDSD := base + "dsd conflict 2: Teller, Auditor\n"
	g, _ := loadPolicy(t, base)
	byName := func() map[string]bool {
		m := make(map[string]bool)
		for _, r := range g.Engine().Pool().Snapshot() {
			m[r.Name] = true
		}
		return m
	}
	if !byName()["AAR2.Boss"] {
		t.Fatal("expected AAR2.Boss before the change")
	}
	rep := apply(t, g, withDSD)
	// Teller and Auditor join the DSD set directly; Boss inherits the
	// flag through the closure. All three regenerate — and nothing
	// else would in a larger enterprise.
	if len(rep.RolesRegenerated) != 3 {
		t.Fatalf("regenerated = %v, want Auditor, Boss and Teller", rep.RolesRegenerated)
	}
	names := byName()
	if !names["AAR4.Boss"] || names["AAR2.Boss"] {
		t.Fatalf("Boss variant did not flip to AAR4: %v", rep)
	}
	if !names["AAR4.Teller"] || !names["AAR3.Auditor"] {
		t.Fatal("Teller/Auditor variants did not flip")
	}
	// And the new constraint enforces: Boss (implicit Teller) + Auditor
	// in one session is denied.
	sid := newSession(t, g, "eve")
	if dec := activateReq(t, g, "eve", sid, "Boss"); !dec.Allowed() {
		t.Fatalf("Boss denied: %s", dec.Reason())
	}
	if dec := activateReq(t, g, "eve", sid, "Auditor"); dec.Allowed() {
		t.Fatal("DSD violation allowed after regen")
	}
}

func TestApplyUserChanges(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	edited := replaceLine(t, xyzPolicy, "user bob: PC", "user bob: PC, Clerk") + "user dave: AC\n"
	rep := apply(t, g, edited)
	if len(rep.UsersAdded) != 1 || rep.UsersAdded[0] != "dave" {
		t.Fatalf("UsersAdded = %v", rep.UsersAdded)
	}
	st := g.Engine().Store()
	if !st.CheckAssigned("bob", "Clerk") || !st.CheckAssigned("dave", "AC") {
		t.Fatal("assignment diffs not applied")
	}
	// Remove carol.
	removed := replaceLine(t, edited, "user carol: AC", "")
	rep = apply(t, g, removed)
	if len(rep.UsersRemoved) != 1 || rep.UsersRemoved[0] != "carol" {
		t.Fatalf("UsersRemoved = %v", rep.UsersRemoved)
	}
	if st.UserExists("carol") {
		t.Fatal("carol still exists")
	}
}

func TestApplyThresholdAndDurationChanges(t *testing.T) {
	base := `
policy "p"
role Staff
user u: Staff
duration * Staff 2h
threshold burst 5 in 10m: alert
`
	g, sim := loadPolicy(t, base)
	edited := replaceLine(t, base, "duration * Staff 2h", "duration * Staff 30m")
	edited = replaceLine(t, edited, "threshold burst 5 in 10m: alert", "threshold burst 2 in 10m: lock-user")
	if _, err := g.Apply(mustSpec(t, edited)); err != nil {
		t.Fatal(err)
	}
	// New duration bound applies.
	sid := newSession(t, g, "u")
	activateReq(t, g, "u", sid, "Staff")
	sim.Advance(31 * time.Minute)
	if g.Engine().Store().CheckSessionRole(rbac.SessionID(sid), "Staff") {
		t.Fatal("old duration still in force")
	}
	// New threshold applies.
	bad := event.Params{"user": "u", "session": sid, "operation": "x", "object": "y"}
	decide(t, g, EvCheckAccess, bad)
	decide(t, g, EvCheckAccess, bad)
	if !g.Engine().Store().UserLocked("u") {
		t.Fatal("new threshold not in force")
	}
}

func TestReportString(t *testing.T) {
	rep := Report{RolesRegenerated: []string{"a"}, RulesAdded: 4, RulesRemoved: 4}
	if rep.String() == "" || rep.Touched() != 1 {
		t.Fatal("Report accessors")
	}
}

// --------------------------------------------------------------------------
// helpers

func mustSpec(t *testing.T, src string) *policy.Spec {
	t.Helper()
	s, err := policy.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func replaceLine(t *testing.T, src, old, new string) string {
	t.Helper()
	if !strings.Contains(src, old) {
		t.Fatalf("line %q not in policy", old)
	}
	return strings.ReplaceAll(src, old, new)
}
