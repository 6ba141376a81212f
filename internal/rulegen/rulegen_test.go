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

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// xyzPolicy is the paper's enterprise XYZ (Section 5 / Figure 1).
const xyzPolicy = `
policy "enterprise-xyz"
role PM
role PC
role AM
role AC
role Clerk
hierarchy PM > PC > Clerk
hierarchy AM > AC > Clerk
ssd purchase-approval 2: PC, AC
permission PC: write purchase-order.dat
permission AC: approve purchase-order.dat
permission Clerk: read lobby.txt
user bob: PC
user carol: AC
user alice: PM
cardinality PM 1
`

// loadPolicy builds a fully generated engine from policy source.
func loadPolicy(t *testing.T, src string) (*Generator, *clock.Sim) {
	t.Helper()
	spec, err := policy.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	sim := clock.NewSim(t0)
	eng := sentinel.NewEngine(sim)
	g, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Load(spec); err != nil {
		t.Fatal(err)
	}
	return g, sim
}

// decide raises a request event and returns the verdict.
func decide(t *testing.T, g *Generator, ev string, p event.Params) *sentinel.Decision {
	t.Helper()
	dec, err := g.Engine().Decide(ev, p)
	if err != nil {
		t.Fatalf("Decide(%s): %v", ev, err)
	}
	return dec
}

// newSession creates a session for user through the administrative rule.
func newSession(t *testing.T, g *Generator, user string) string {
	t.Helper()
	dec := decide(t, g, EvCreateSession, event.Params{"user": user})
	if !dec.Allowed() {
		t.Fatalf("createSession(%s) denied: %s", user, dec.Reason())
	}
	sid, _ := dec.Result().(string)
	if sid == "" {
		t.Fatalf("createSession(%s): no session id result", user)
	}
	return sid
}

func activateReq(t *testing.T, g *Generator, user, sid, role string) *sentinel.Decision {
	t.Helper()
	return decide(t, g, EvAddActiveRole(rbac.RoleID(role)), event.Params{"user": user, "session": sid})
}

// --------------------------------------------------------------------------
// F1: rule inventory generated from the XYZ policy

func TestXYZRuleInventory(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	checkXYZInventory(t, g)
}

// checkXYZInventory checks the rule pool generated from xyzPolicy.
func checkXYZInventory(t *testing.T, g *Generator) {
	t.Helper()
	snap := g.Engine().Pool().Snapshot()
	byName := make(map[string]bool, len(snap))
	for _, r := range snap {
		byName[r.Name] = true
	}
	// Every role takes part in the hierarchy, so every activation rule
	// is the AAR2 variant (static SoD adds assignment-time checks, not
	// activation conditions).
	want := []string{
		"AAR2.PM", "AAR2.PC", "AAR2.AM", "AAR2.AC", "AAR2.Clerk",
		"DAR.PM", "DAR.PC", "DAR.AM", "DAR.AC", "DAR.Clerk",
		"ENB.PM", "TSOD1.PM",
		"CC1.PM", // cardinality 1
		"CA1", "CAP1",
		"ADM.assignUser", "ADM.deassignUser", "ADM.createSession", "ADM.deleteSession",
	}
	for _, name := range want {
		if !byName[name] {
			t.Errorf("missing generated rule %q", name)
		}
	}
	if byName["CC1.PC"] {
		t.Error("CC1.PC generated without a cardinality bound")
	}
	// 5 roles x 4 localized rules + CC1.PM + 7 global rules (CA1, CAP1,
	// 4x ADM, CTX.apply).
	if len(snap) != 5*4+1+7 {
		names := make([]string, 0, len(snap))
		for _, r := range snap {
			names = append(names, r.Name)
		}
		t.Errorf("rule count = %d: %s", len(snap), strings.Join(names, ", "))
	}
	// Tag discipline: localized rules carry role tags.
	for _, r := range snap {
		if strings.HasSuffix(r.Name, ".PC") && !hasTag(r.Tags, "role:PC") {
			t.Errorf("rule %s lacks role tag: %v", r.Name, r.Tags)
		}
	}
}

func hasTag(tags []string, tag string) bool {
	for _, t := range tags {
		if t == tag {
			return true
		}
	}
	return false
}

func TestGeneratorAccessors(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	if g.Spec() == nil || g.Spec().Name != "enterprise-xyz" {
		t.Fatalf("Spec = %v", g.Spec())
	}
	if g.Graph() == nil || g.Graph().Len() != 5 {
		t.Fatalf("Graph = %v", g.Graph())
	}
}

func TestLoadRejectsBadPolicy(t *testing.T) {
	spec, err := policy.ParseString("role A\nrole A")
	if err != nil {
		t.Fatal(err)
	}
	eng := sentinel.NewEngine(clock.NewSim(t0))
	g, err := New(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Load(spec); err == nil {
		t.Fatal("Load accepted an inconsistent policy")
	}
}

// --------------------------------------------------------------------------
// Enforcement through the generated rules

func TestActivationHappyPath(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	sid := newSession(t, g, "bob")
	dec := activateReq(t, g, "bob", sid, "PC")
	if !dec.Allowed() {
		t.Fatalf("bob/PC denied: %s", dec.Reason())
	}
	if !g.Engine().Store().CheckSessionRole(rbac.SessionID(sid), "PC") {
		t.Fatal("role not active after allowed activation")
	}
}

func TestActivationDeniedUnassigned(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	sid := newSession(t, g, "bob")
	dec := activateReq(t, g, "bob", sid, "AM")
	if dec.Allowed() {
		t.Fatal("bob activated AM without assignment")
	}
	if dec.Reason() != "Access Denied Cannot Activate" {
		t.Fatalf("reason = %q", dec.Reason())
	}
}

func TestActivationThroughHierarchy(t *testing.T) {
	// alice is assigned PM; AAR2's checkAuthorization admits PC and
	// Clerk.
	g, _ := loadPolicy(t, xyzPolicy)
	sid := newSession(t, g, "alice")
	for _, role := range []string{"PC", "Clerk"} {
		if dec := activateReq(t, g, "alice", sid, role); !dec.Allowed() {
			t.Fatalf("alice/%s denied: %s", role, dec.Reason())
		}
	}
	if dec := activateReq(t, g, "alice", sid, "AC"); dec.Allowed() {
		t.Fatal("alice activated AC outside her branch")
	}
}

func TestActivationDuplicateDenied(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	sid := newSession(t, g, "bob")
	activateReq(t, g, "bob", sid, "PC")
	if dec := activateReq(t, g, "bob", sid, "PC"); dec.Allowed() {
		t.Fatal("duplicate activation allowed")
	}
}

func TestActivationWrongSession(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	sidCarol := newSession(t, g, "carol")
	if dec := activateReq(t, g, "bob", sidCarol, "PC"); dec.Allowed() {
		t.Fatal("activation in another user's session allowed")
	}
	if dec := activateReq(t, g, "bob", "nosuch", "PC"); dec.Allowed() {
		t.Fatal("activation in unknown session allowed")
	}
}

func TestDeactivation(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	sid := newSession(t, g, "bob")
	activateReq(t, g, "bob", sid, "PC")
	dec := decide(t, g, EvDropActiveRole("PC"), event.Params{"user": "bob", "session": sid})
	if !dec.Allowed() {
		t.Fatalf("deactivation denied: %s", dec.Reason())
	}
	if g.Engine().Store().CheckSessionRole(rbac.SessionID(sid), "PC") {
		t.Fatal("role still active")
	}
	// Dropping again is denied.
	if dec := decide(t, g, EvDropActiveRole("PC"), event.Params{"user": "bob", "session": sid}); dec.Allowed() {
		t.Fatal("double deactivation allowed")
	}
}

func TestCheckAccess(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	sid := newSession(t, g, "bob")
	activateReq(t, g, "bob", sid, "PC")
	req := event.Params{"user": "bob", "session": sid, "operation": "write", "object": "purchase-order.dat"}
	if dec := decide(t, g, EvCheckAccess, req); !dec.Allowed() {
		t.Fatalf("direct permission denied: %s", dec.Reason())
	}
	// Inherited from Clerk.
	req2 := event.Params{"user": "bob", "session": sid, "operation": "read", "object": "lobby.txt"}
	if dec := decide(t, g, EvCheckAccess, req2); !dec.Allowed() {
		t.Fatalf("inherited permission denied: %s", dec.Reason())
	}
	// Not granted.
	req3 := event.Params{"user": "bob", "session": sid, "operation": "approve", "object": "purchase-order.dat"}
	if dec := decide(t, g, EvCheckAccess, req3); dec.Allowed() {
		t.Fatal("unauthorized operation allowed")
	}
}

func TestAssignmentRuleEnforcesSSD(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	// carol holds AC; assigning PC violates the SSD set.
	dec := decide(t, g, EvAssignUser, event.Params{"user": "carol", "role": "PC"})
	if dec.Allowed() {
		t.Fatal("SSD-violating assignment allowed")
	}
	// Inherited conflict: alice (PM) cannot take AM.
	dec = decide(t, g, EvAssignUser, event.Params{"user": "alice", "role": "AM"})
	if dec.Allowed() {
		t.Fatal("inherited SSD conflict allowed (PM + AM)")
	}
	// A clean assignment goes through and is usable.
	dec = decide(t, g, EvAssignUser, event.Params{"user": "bob", "role": "Clerk"})
	if !dec.Allowed() {
		t.Fatalf("clean assignment denied: %s", dec.Reason())
	}
	if !g.Engine().Store().CheckAssigned("bob", "Clerk") {
		t.Fatal("assignment missing after allowed request")
	}
	// Deassignment.
	dec = decide(t, g, EvDeassignUser, event.Params{"user": "bob", "role": "Clerk"})
	if !dec.Allowed() {
		t.Fatalf("deassignment denied: %s", dec.Reason())
	}
	if dec := decide(t, g, EvDeassignUser, event.Params{"user": "bob", "role": "Clerk"}); dec.Allowed() {
		t.Fatal("double deassignment allowed")
	}
}

func TestCardinalityRollback(t *testing.T) {
	// PM has cardinality 1 (the university-president scenario of Rule 4).
	g, _ := loadPolicy(t, xyzPolicy)
	st := g.Engine().Store()
	// A second PM user: assign dave to PM via the administrative rule.
	if err := st.AddUser("dave"); err != nil {
		t.Fatal(err)
	}
	if dec := decide(t, g, EvAssignUser, event.Params{"user": "dave", "role": "PM"}); !dec.Allowed() {
		t.Fatalf("assign dave/PM denied: %s", dec.Reason())
	}
	sidA := newSession(t, g, "alice")
	sidD := newSession(t, g, "dave")
	if dec := activateReq(t, g, "alice", sidA, "PM"); !dec.Allowed() {
		t.Fatalf("first PM activation denied: %s", dec.Reason())
	}
	dec := activateReq(t, g, "dave", sidD, "PM")
	if dec.Allowed() {
		t.Fatal("second PM activation allowed beyond cardinality")
	}
	if dec.Reason() != "Maximum Number of Roles Reached" {
		t.Fatalf("reason = %q", dec.Reason())
	}
	// The cascaded CC rule rolled the activation back.
	if st.CheckSessionRole(rbac.SessionID(sidD), "PM") {
		t.Fatal("over-cardinality activation not rolled back")
	}
	if n := st.RoleActiveCount("PM"); n != 1 {
		t.Fatalf("RoleActiveCount = %d", n)
	}
	// Deactivation frees the slot.
	decide(t, g, EvDropActiveRole("PM"), event.Params{"user": "alice", "session": sidA})
	if dec := activateReq(t, g, "dave", sidD, "PM"); !dec.Allowed() {
		t.Fatalf("activation after slot freed denied: %s", dec.Reason())
	}
}

func TestSessionLifecycleRules(t *testing.T) {
	g, _ := loadPolicy(t, xyzPolicy)
	if dec := decide(t, g, EvCreateSession, event.Params{"user": "ghost"}); dec.Allowed() {
		t.Fatal("session for unknown user allowed")
	}
	sid := newSession(t, g, "bob")
	activateReq(t, g, "bob", sid, "PC")
	dec := decide(t, g, EvDeleteSession, event.Params{"session": sid})
	if !dec.Allowed() {
		t.Fatalf("deleteSession denied: %s", dec.Reason())
	}
	if g.Engine().Store().SessionExists(rbac.SessionID(sid)) {
		t.Fatal("session survived deletion")
	}
	if dec := decide(t, g, EvDeleteSession, event.Params{"session": sid}); dec.Allowed() {
		t.Fatal("double delete allowed")
	}
}

// --------------------------------------------------------------------------
// DSD policies select AAR3/AAR4 and enforce at activation time

const bankPolicy = `
policy "bank"
role Boss
role Teller
role Auditor
hierarchy Boss > Teller
dsd teller-auditor 2: Teller, Auditor
user eve: Teller, Auditor
user mgr: Boss, Auditor
`

func TestDSDVariantsAndEnforcement(t *testing.T) {
	g, _ := loadPolicy(t, bankPolicy)
	byName := make(map[string]bool)
	for _, r := range g.Engine().Pool().Snapshot() {
		byName[r.Name] = true
	}
	// Teller: hierarchy (junior of Boss) + DSD -> AAR4. Auditor: DSD
	// only -> AAR3. Boss: hierarchy + inherited DSD -> AAR4.
	for _, want := range []string{"AAR4.Teller", "AAR3.Auditor", "AAR4.Boss"} {
		if !byName[want] {
			t.Errorf("missing rule %q", want)
		}
	}
	sid := newSession(t, g, "eve")
	if dec := activateReq(t, g, "eve", sid, "Teller"); !dec.Allowed() {
		t.Fatalf("Teller denied: %s", dec.Reason())
	}
	if dec := activateReq(t, g, "eve", sid, "Auditor"); dec.Allowed() {
		t.Fatal("DSD violation allowed")
	}
	// Hierarchy counts: Boss activates Teller implicitly.
	sidM := newSession(t, g, "mgr")
	if dec := activateReq(t, g, "mgr", sidM, "Boss"); !dec.Allowed() {
		t.Fatalf("Boss denied: %s", dec.Reason())
	}
	if dec := activateReq(t, g, "mgr", sidM, "Auditor"); dec.Allowed() {
		t.Fatal("DSD violation through hierarchy allowed")
	}
}

// --------------------------------------------------------------------------
// Specialized maxroles rule (scenario 1)

func TestMaxRolesSpecializedRule(t *testing.T) {
	g, _ := loadPolicy(t, `
policy "jane"
role R1
role R2
role R3
user jane: R1, R2, R3
maxroles jane 2
`)
	byName := make(map[string]bool)
	for _, r := range g.Engine().Pool().Snapshot() {
		byName[r.Name] = true
	}
	if !byName["SPEC.maxroles.jane"] {
		t.Fatal("specialized rule missing")
	}
	sid := newSession(t, g, "jane")
	activateReq(t, g, "jane", sid, "R1")
	activateReq(t, g, "jane", sid, "R2")
	dec := activateReq(t, g, "jane", sid, "R3")
	if dec.Allowed() {
		t.Fatal("third activation allowed beyond maxroles")
	}
	if g.Engine().Store().CheckSessionRole(rbac.SessionID(sid), "R3") {
		t.Fatal("over-budget activation not rolled back")
	}
}
