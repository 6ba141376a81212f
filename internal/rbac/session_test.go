package rbac

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func newSessionFixture(t *testing.T) (*Store, SessionID) {
	t.Helper()
	s := newXYZ(t)
	mustOK(t, s.AddUser("bob"))
	mustOK(t, s.AssignUser("bob", "PC"))
	sid, err := s.CreateSession("bob")
	mustOK(t, err)
	return s, sid
}

func TestCreateDeleteSession(t *testing.T) {
	s := NewStore()
	mustOK(t, s.AddUser("bob"))
	sid, err := s.CreateSession("bob")
	mustOK(t, err)
	if !s.SessionExists(sid) {
		t.Fatal("session missing after create")
	}
	owner, err := s.SessionUser(sid)
	mustOK(t, err)
	if owner != "bob" {
		t.Fatalf("owner = %q", owner)
	}
	if !s.CheckUserSession("bob", sid) || s.CheckUserSession("jane", sid) {
		t.Fatal("CheckUserSession wrong")
	}
	mustOK(t, s.DeleteSession(sid))
	mustErr(t, s.DeleteSession(sid), ErrNotFound)
	if _, err := s.CreateSession("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatal("CreateSession for unknown user accepted")
	}
}

func TestSessionIDsUnique(t *testing.T) {
	s := NewStore()
	mustOK(t, s.AddUser("bob"))
	seen := map[SessionID]bool{}
	for i := 0; i < 100; i++ {
		sid, err := s.CreateSession("bob")
		mustOK(t, err)
		if seen[sid] {
			t.Fatalf("duplicate session id %q", sid)
		}
		seen[sid] = true
	}
}

func TestDeleteUserEndsSessions(t *testing.T) {
	s, sid := newSessionFixture(t)
	mustOK(t, s.AddActiveRole("bob", sid, "PC"))
	mustOK(t, s.DeleteUser("bob"))
	if s.SessionExists(sid) {
		t.Fatal("session survived user deletion")
	}
	if n := s.RoleActiveCount("PC"); n != 0 {
		t.Fatalf("activeCount = %d after user deletion", n)
	}
}

func TestAddActiveRolePipeline(t *testing.T) {
	s, sid := newSessionFixture(t)
	// Unknown user / session / role.
	mustErr(t, s.AddActiveRole("ghost", sid, "PC"), ErrNotFound)
	mustErr(t, s.AddActiveRole("bob", "zzz", "PC"), ErrNotFound)
	mustErr(t, s.AddActiveRole("bob", sid, "ghost"), ErrNotFound)
	// Wrong owner.
	mustOK(t, s.AddUser("jane"))
	mustErr(t, s.AddActiveRole("jane", sid, "PC"), ErrNotOwner)
	// Not assigned.
	mustErr(t, s.AddActiveRole("bob", sid, "AM"), ErrNotAssigned)
	// Happy path.
	mustOK(t, s.AddActiveRole("bob", sid, "PC"))
	// Duplicate activation.
	mustErr(t, s.AddActiveRole("bob", sid, "PC"), ErrActive)
	roles, err := s.SessionRoles(sid)
	mustOK(t, err)
	if fmt.Sprint(roles) != "[PC]" {
		t.Fatalf("SessionRoles = %v", roles)
	}
}

func TestActivateViaHierarchyAuthorization(t *testing.T) {
	// A user assigned to PM may activate PC (AAR2 semantics).
	s := newXYZ(t)
	mustOK(t, s.AddUser("alice"))
	mustOK(t, s.AssignUser("alice", "PM"))
	sid, err := s.CreateSession("alice")
	mustOK(t, err)
	mustOK(t, s.AddActiveRole("alice", sid, "PC"))
	mustOK(t, s.AddActiveRole("alice", sid, "Clerk"))
	if !s.CheckAuthorized("alice", "Clerk") {
		t.Fatal("CheckAuthorized(Clerk) false")
	}
	if s.CheckAuthorized("alice", "AC") {
		t.Fatal("CheckAuthorized(AC) true")
	}
}

func TestDisabledRoleCannotActivate(t *testing.T) {
	s, sid := newSessionFixture(t)
	mustOK(t, s.SetRoleEnabled("PC", false))
	mustErr(t, s.AddActiveRole("bob", sid, "PC"), ErrRoleDisabled)
	if s.RoleEnabled("PC") {
		t.Fatal("RoleEnabled true after disable")
	}
	mustOK(t, s.SetRoleEnabled("PC", true))
	mustOK(t, s.AddActiveRole("bob", sid, "PC"))
	mustErr(t, s.SetRoleEnabled("ghost", true), ErrNotFound)
}

func TestLockedUser(t *testing.T) {
	s, sid := newSessionFixture(t)
	mustOK(t, s.AddActiveRole("bob", sid, "PC"))
	mustOK(t, s.GrantPermission("PC", Permission{"write", "po"}))
	mustOK(t, s.SetUserLocked("bob", true))
	if !s.UserLocked("bob") {
		t.Fatal("UserLocked false")
	}
	if _, err := s.CreateSession("bob"); !errors.Is(err, ErrUserLocked) {
		t.Fatal("locked user created session")
	}
	mustErr(t, s.AddActiveRole("bob", sid, "Clerk"), ErrUserLocked)
	if s.CheckAccess(sid, Permission{"write", "po"}) {
		t.Fatal("locked user passed CheckAccess")
	}
	mustOK(t, s.SetUserLocked("bob", false))
	if !s.CheckAccess(sid, Permission{"write", "po"}) {
		t.Fatal("unlocked user denied")
	}
}

func TestDynamicSoDBlocksActivation(t *testing.T) {
	s := NewStore()
	for _, r := range []RoleID{"teller", "auditor"} {
		mustOK(t, s.AddRole(r))
	}
	mustOK(t, s.CreateDSD(SoDSet{Name: "bank", Roles: []RoleID{"teller", "auditor"}, N: 2}))
	mustOK(t, s.AddUser("bob"))
	mustOK(t, s.AssignUser("bob", "teller"))
	mustOK(t, s.AssignUser("bob", "auditor")) // assignment OK (DSD, not SSD)
	sid, err := s.CreateSession("bob")
	mustOK(t, err)
	mustOK(t, s.AddActiveRole("bob", sid, "teller"))
	mustErr(t, s.AddActiveRole("bob", sid, "auditor"), ErrDSD)
	if s.CheckDynamicSoD(sid, "auditor") {
		t.Fatal("CheckDynamicSoD should be false")
	}
	// Dropping teller frees auditor.
	mustOK(t, s.DropActiveRole("bob", sid, "teller"))
	mustOK(t, s.AddActiveRole("bob", sid, "auditor"))
	// A second session may activate the other role (DSD is per session).
	sid2, err := s.CreateSession("bob")
	mustOK(t, err)
	mustOK(t, s.AddActiveRole("bob", sid2, "teller"))
}

func TestDynamicSoDCountsHierarchy(t *testing.T) {
	// Activating a senior role implicitly activates its juniors for DSD
	// purposes.
	s := NewStore()
	for _, r := range []RoleID{"boss", "teller", "auditor"} {
		mustOK(t, s.AddRole(r))
	}
	mustOK(t, s.AddInheritance("boss", "teller"))
	mustOK(t, s.CreateDSD(SoDSet{Name: "bank", Roles: []RoleID{"teller", "auditor"}, N: 2}))
	mustOK(t, s.AddUser("bob"))
	mustOK(t, s.AssignUser("bob", "boss"))
	mustOK(t, s.AssignUser("bob", "auditor"))
	sid, err := s.CreateSession("bob")
	mustOK(t, err)
	mustOK(t, s.AddActiveRole("bob", sid, "boss"))
	mustErr(t, s.AddActiveRole("bob", sid, "auditor"), ErrDSD)
}

// TestAddInheritanceRespectsLiveDSD: an inheritance edge that would
// extend a live session's active roles over a DSD limit is rejected
// with ErrDSD and rolled back, like the SSD check beside it.
func TestAddInheritanceRespectsLiveDSD(t *testing.T) {
	t.Run("random-ops-replay", func(t *testing.T) {
		// This sequence once added an edge under session s11's active
		// roles that left it holding 2 of 2 roles of dsd2.
		s := NewStore()
		randomOps(s, rand.New(rand.NewSource(8904467086733945656)), 400)
		if errs := s.CheckInvariants(); len(errs) != 0 {
			t.Fatal(errs)
		}
	})
	t.Run("three-roles", func(t *testing.T) {
		s := NewStore()
		for _, r := range []RoleID{"lead", "teller", "auditor"} {
			mustOK(t, s.AddRole(r))
		}
		mustOK(t, s.CreateDSD(SoDSet{Name: "bank", Roles: []RoleID{"teller", "auditor"}, N: 2}))
		mustOK(t, s.AddUser("bob"))
		mustOK(t, s.AssignUser("bob", "lead"))
		mustOK(t, s.AssignUser("bob", "auditor"))
		sid, err := s.CreateSession("bob")
		mustOK(t, err)
		mustOK(t, s.AddActiveRole("bob", sid, "lead"))
		mustOK(t, s.AddActiveRole("bob", sid, "auditor"))
		// lead > teller would make sid hold teller and auditor at once.
		mustErr(t, s.AddInheritance("lead", "teller"), ErrDSD)
		if j, err := s.ImmediateJuniors("lead"); err != nil || len(j) != 0 {
			t.Fatalf("rejected edge left lead's juniors %v (%v)", j, err)
		}
		if errs := s.CheckInvariants(); len(errs) != 0 {
			t.Fatal(errs)
		}
		// With auditor dropped the same edge is fine.
		mustOK(t, s.DropActiveRole("bob", sid, "auditor"))
		mustOK(t, s.AddInheritance("lead", "teller"))
		mustErr(t, s.AddActiveRole("bob", sid, "auditor"), ErrDSD)
	})
}

func TestDSDCreationValidation(t *testing.T) {
	s := NewStore()
	mustOK(t, s.AddRole("a"))
	mustOK(t, s.AddRole("b"))
	mustOK(t, s.AddUser("bob"))
	mustOK(t, s.AssignUser("bob", "a"))
	mustOK(t, s.AssignUser("bob", "b"))
	sid, err := s.CreateSession("bob")
	mustOK(t, err)
	mustOK(t, s.AddActiveRole("bob", sid, "a"))
	mustOK(t, s.AddActiveRole("bob", sid, "b"))
	// Both active: installing the DSD now must fail.
	mustErr(t, s.CreateDSD(SoDSet{Name: "d", Roles: []RoleID{"a", "b"}, N: 2}), ErrDSD)
	mustOK(t, s.DropActiveRole("bob", sid, "b"))
	mustOK(t, s.CreateDSD(SoDSet{Name: "d", Roles: []RoleID{"a", "b"}, N: 2}))
	mustErr(t, s.CreateDSD(SoDSet{Name: "d", Roles: []RoleID{"a", "b"}, N: 2}), ErrExists)
	mustOK(t, s.DeleteDSD("d"))
	mustErr(t, s.DeleteDSD("d"), ErrNotFound)
}

func TestRoleCardinality(t *testing.T) {
	// Paper Rule 4: at most N users active in a role at once.
	s := NewStore()
	mustOK(t, s.AddRole("president"))
	mustOK(t, s.SetRoleCardinality("president", 1))
	for _, u := range []UserID{"u1", "u2"} {
		mustOK(t, s.AddUser(u))
		mustOK(t, s.AssignUser(u, "president"))
	}
	s1, err := s.CreateSession("u1")
	mustOK(t, err)
	s2, err := s.CreateSession("u2")
	mustOK(t, err)
	mustOK(t, s.AddActiveRole("u1", s1, "president"))
	if s.CheckRoleCardinality("president") {
		t.Fatal("CheckRoleCardinality should be false at limit")
	}
	mustErr(t, s.AddActiveRole("u2", s2, "president"), ErrCardinality)
	// Deactivation frees the slot.
	mustOK(t, s.DropActiveRole("u1", s1, "president"))
	mustOK(t, s.AddActiveRole("u2", s2, "president"))
	// Session deletion frees it too.
	mustOK(t, s.DeleteSession(s2))
	if n := s.RoleActiveCount("president"); n != 0 {
		t.Fatalf("activeCount = %d", n)
	}
	mustErr(t, s.SetRoleCardinality("ghost", 1), ErrNotFound)
}

func TestUserMaxActiveRoles(t *testing.T) {
	// Paper scenario 1: Jane is restricted to five active roles; here 2.
	s := NewStore()
	mustOK(t, s.AddUser("jane"))
	for i := 0; i < 3; i++ {
		r := RoleID(fmt.Sprintf("r%d", i))
		mustOK(t, s.AddRole(r))
		mustOK(t, s.AssignUser("jane", r))
	}
	mustOK(t, s.SetUserMaxActiveRoles("jane", 2))
	sid, err := s.CreateSession("jane")
	mustOK(t, err)
	mustOK(t, s.AddActiveRole("jane", sid, "r0"))
	mustOK(t, s.AddActiveRole("jane", sid, "r1"))
	if s.CheckUserActiveBudget(sid) {
		t.Fatal("CheckUserActiveBudget should be false at limit")
	}
	mustErr(t, s.AddActiveRole("jane", sid, "r2"), ErrCardinality)
	mustOK(t, s.DropActiveRole("jane", sid, "r0"))
	mustOK(t, s.AddActiveRole("jane", sid, "r2"))
	mustErr(t, s.SetUserMaxActiveRoles("ghost", 2), ErrNotFound)
}

func TestCheckAccess(t *testing.T) {
	s, sid := newSessionFixture(t)
	read := Permission{"read", "po.dat"}
	write := Permission{"write", "po.dat"}
	mustOK(t, s.GrantPermission("PC", write))
	mustOK(t, s.GrantPermission("Clerk", read))

	if s.CheckAccess(sid, write) {
		t.Fatal("access granted with no active role")
	}
	mustOK(t, s.AddActiveRole("bob", sid, "PC"))
	if !s.CheckAccess(sid, write) {
		t.Fatal("direct permission denied")
	}
	// PC inherits Clerk's read.
	if !s.CheckAccess(sid, read) {
		t.Fatal("inherited permission denied")
	}
	if s.CheckAccess(sid, Permission{"approve", "po.dat"}) {
		t.Fatal("unknown permission granted")
	}
	if s.CheckAccess("zzz", write) {
		t.Fatal("unknown session granted")
	}
	mustOK(t, s.DropActiveRole("bob", sid, "PC"))
	if s.CheckAccess(sid, write) {
		t.Fatal("access granted after deactivation")
	}
}

func TestSessionPermissions(t *testing.T) {
	s, sid := newSessionFixture(t)
	mustOK(t, s.GrantPermission("PC", Permission{"write", "po"}))
	mustOK(t, s.GrantPermission("Clerk", Permission{"read", "lobby"}))
	mustOK(t, s.AddActiveRole("bob", sid, "PC"))
	perms, err := s.SessionPermissions(sid)
	mustOK(t, err)
	if len(perms) != 2 {
		t.Fatalf("SessionPermissions = %v, want 2 (direct + inherited)", perms)
	}
	if _, err := s.SessionPermissions("zzz"); !errors.Is(err, ErrNotFound) {
		t.Fatal("SessionPermissions(zzz) should fail")
	}
}

func TestRawMutators(t *testing.T) {
	s, sid := newSessionFixture(t)
	// Raw mutators skip checks: activating an unassigned role succeeds.
	mustOK(t, s.RawAddSessionRole(sid, "AM"))
	if !s.CheckSessionRole(sid, "AM") {
		t.Fatal("raw add missing")
	}
	if n := s.RoleActiveCount("AM"); n != 1 {
		t.Fatalf("activeCount = %d", n)
	}
	mustErr(t, s.RawAddSessionRole(sid, "AM"), ErrActive)
	mustOK(t, s.RawDropSessionRole(sid, "AM"))
	mustErr(t, s.RawDropSessionRole(sid, "AM"), ErrNotFound)
	mustErr(t, s.RawAddSessionRole("zzz", "AM"), ErrNotFound)
	mustErr(t, s.RawAddSessionRole(sid, "ghost"), ErrNotFound)
	// RawAssignUser skips SSD.
	mustOK(t, s.RawAssignUser("bob", "AC"))
	if !s.CheckAssigned("bob", "AC") {
		t.Fatal("raw assign missing")
	}
}

func TestDropActiveRoleErrors(t *testing.T) {
	s, sid := newSessionFixture(t)
	mustErr(t, s.DropActiveRole("bob", sid, "PC"), ErrNotFound) // not active
	mustErr(t, s.DropActiveRole("bob", "zzz", "PC"), ErrNotFound)
	mustOK(t, s.AddUser("jane"))
	mustOK(t, s.AddActiveRole("bob", sid, "PC"))
	mustErr(t, s.DropActiveRole("jane", sid, "PC"), ErrNotOwner)
}

// Regression (found by differential testing against the baseline):
// deassigning a senior role must also drop active roles that were only
// authorized *through* it.
func TestDeassignSeniorDropsHierarchyActivations(t *testing.T) {
	s := newXYZ(t)
	mustOK(t, s.AddUser("alice"))
	mustOK(t, s.AssignUser("alice", "PM"))
	sid, err := s.CreateSession("alice")
	mustOK(t, err)
	// PC and Clerk activated via PM's seniority.
	mustOK(t, s.AddActiveRole("alice", sid, "PC"))
	mustOK(t, s.AddActiveRole("alice", sid, "Clerk"))
	mustOK(t, s.DeassignUser("alice", "PM"))
	roles, err := s.SessionRoles(sid)
	mustOK(t, err)
	if len(roles) != 0 {
		t.Fatalf("hierarchy-authorized activations survived deassignment: %v", roles)
	}
	if errs := s.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants: %v", errs)
	}
	if n := s.RoleActiveCount("PC"); n != 0 {
		t.Fatalf("activeCount = %d", n)
	}
}

// Regression: removing a hierarchy edge must revoke activations that
// relied on it, for every user.
func TestDeleteInheritancePrunesActivations(t *testing.T) {
	s := NewStore()
	mustOK(t, s.AddRole("senior"))
	mustOK(t, s.AddRole("junior"))
	mustOK(t, s.AddInheritance("senior", "junior"))
	mustOK(t, s.AddUser("u"))
	mustOK(t, s.AssignUser("u", "senior"))
	sid, err := s.CreateSession("u")
	mustOK(t, err)
	mustOK(t, s.AddActiveRole("u", sid, "junior"))
	mustOK(t, s.DeleteInheritance("senior", "junior"))
	if s.CheckSessionRole(sid, "junior") {
		t.Fatal("activation survived the edge it was authorized through")
	}
	// The directly assigned senior role would have survived.
	mustOK(t, s.AddActiveRole("u", sid, "senior"))
	if errs := s.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

// Regression: deleting a mid-hierarchy role revokes activations that
// were authorized through it.
func TestDeleteRolePrunesTransitiveActivations(t *testing.T) {
	s := NewStore()
	for _, r := range []RoleID{"top", "mid", "leaf"} {
		mustOK(t, s.AddRole(r))
	}
	mustOK(t, s.AddInheritance("top", "mid"))
	mustOK(t, s.AddInheritance("mid", "leaf"))
	mustOK(t, s.AddUser("u"))
	mustOK(t, s.AssignUser("u", "top"))
	sid, err := s.CreateSession("u")
	mustOK(t, err)
	mustOK(t, s.AddActiveRole("u", sid, "leaf"))
	// Deleting mid severs the only authorization path to leaf.
	mustOK(t, s.DeleteRole("mid"))
	if s.CheckSessionRole(sid, "leaf") {
		t.Fatal("leaf activation survived the loss of its authorization path")
	}
	if errs := s.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants: %v", errs)
	}
}

func TestUserSessions(t *testing.T) {
	s := NewStore()
	mustOK(t, s.AddUser("bob"))
	s1, _ := s.CreateSession("bob")
	s2, _ := s.CreateSession("bob")
	sids, err := s.UserSessions("bob")
	mustOK(t, err)
	if len(sids) != 2 || sids[0] != s1 || sids[1] != s2 {
		t.Fatalf("UserSessions = %v", sids)
	}
	if _, err := s.UserSessions("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatal("UserSessions(ghost) should fail")
	}
}
