package rbac

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// roleSet is a set of roles.
type roleSet map[RoleID]struct{}

func (s roleSet) add(r RoleID)      { s[r] = struct{}{} }
func (s roleSet) has(r RoleID) bool { _, ok := s[r]; return ok }
func (s roleSet) del(r RoleID)      { delete(s, r) }
func (s roleSet) sorted() []RoleID  { return sortRoles(s) }

func sortRoles(s roleSet) []RoleID {
	out := make([]RoleID, 0, len(s))
	for r := range s {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// userState holds per-user state.
type userState struct {
	assigned roleSet
	sessions map[SessionID]struct{}
	locked   bool
}

// roleState holds per-role state.
type roleState struct {
	perms map[Permission]struct{}
	// juniors and seniors are the *immediate* hierarchy relation: this
	// role inherits (is senior to) each role in juniors.
	juniors roleSet
	seniors roleSet
	// enabled is GTRBAC role-enabling state; a disabled role cannot be
	// activated (default enabled).
	enabled bool
	// cardinality limits how many sessions may have the role active at
	// once; 0 means unlimited (paper Rule 4).
	cardinality int
	// activeCount tracks how many sessions currently have the role
	// active.
	activeCount int
}

// sessionState holds per-session state.
type sessionState struct {
	user   UserID
	active roleSet
}

// Store is the RBAC database: element sets, assignment relations, the
// role hierarchy, SoD relations and live sessions. It is safe for
// concurrent use.
//
// Every policy-grade mutator is a one-operation policy transaction (see
// Tx); Update batches many into one publication.
type Store struct {
	mu       sync.RWMutex
	users    map[UserID]*userState
	roles    map[RoleID]*roleState
	sessions map[SessionID]*sessionState
	ssd      map[string]*SoDSet
	dsd      map[string]*SoDSet
	// maxActiveRoles bounds active roles per session per user; 0 means
	// unlimited.
	maxActiveRoles map[UserID]int
	sessionSeq     int
	// view is the published read-side projection (see view.go); chook is
	// notified after every publication.
	view  atomic.Pointer[accessView]
	chook func(policy bool, sid SessionID)
}

// NewStore returns an empty RBAC store.
func NewStore() *Store {
	s := &Store{
		users:          make(map[UserID]*userState),
		roles:          make(map[RoleID]*roleState),
		sessions:       make(map[SessionID]*sessionState),
		ssd:            make(map[string]*SoDSet),
		dsd:            make(map[string]*SoDSet),
		maxActiveRoles: make(map[UserID]int),
	}
	s.view.Store(&accessView{perms: map[RoleID]map[Permission]struct{}{}})
	return s
}

// ---------------------------------------------------------------------------
// Administrative commands: element sets

// AddUser creates a user.
func (s *Store) AddUser(u UserID) error { return s.autoTx().AddUser(u) }

// AddUser is Store.AddUser within the transaction.
func (tx *Tx) AddUser(u UserID) error {
	s := tx.lock()
	defer tx.unlock()
	if _, ok := s.users[u]; ok {
		return fmt.Errorf("user %q: %w", u, ErrExists)
	}
	s.users[u] = &userState{assigned: roleSet{}, sessions: map[SessionID]struct{}{}}
	tx.dirty = true
	return nil
}

// DeleteUser removes a user, its assignments and its sessions.
func (s *Store) DeleteUser(u UserID) error { return s.autoTx().DeleteUser(u) }

// DeleteUser is Store.DeleteUser within the transaction.
func (tx *Tx) DeleteUser(u UserID) error {
	s := tx.lock()
	defer tx.unlock()
	us, ok := s.users[u]
	if !ok {
		return fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	for sid := range us.sessions {
		s.deleteSessionLocked(sid)
	}
	delete(s.users, u)
	delete(s.maxActiveRoles, u)
	tx.dirty = true
	return nil
}

// AddRole creates a role (enabled, no permissions, no hierarchy edges).
func (s *Store) AddRole(r RoleID) error { return s.autoTx().AddRole(r) }

// AddRole is Store.AddRole within the transaction.
func (tx *Tx) AddRole(r RoleID) error {
	s := tx.lock()
	defer tx.unlock()
	if _, ok := s.roles[r]; ok {
		return fmt.Errorf("role %q: %w", r, ErrExists)
	}
	s.roles[r] = &roleState{
		perms:   make(map[Permission]struct{}),
		juniors: roleSet{},
		seniors: roleSet{},
		enabled: true,
	}
	tx.dirty = true
	return nil
}

// DeleteRole removes a role, detaching it from users, sessions, the
// hierarchy and SoD sets.
func (s *Store) DeleteRole(r RoleID) error { return s.autoTx().DeleteRole(r) }

// DeleteRole is Store.DeleteRole within the transaction.
func (tx *Tx) DeleteRole(r RoleID) error {
	s := tx.lock()
	defer tx.unlock()
	rs, ok := s.roles[r]
	if !ok {
		return fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	for _, us := range s.users {
		us.assigned.del(r)
	}
	for _, sess := range s.sessions {
		if sess.active.has(r) {
			sess.active.del(r)
		}
	}
	for j := range rs.juniors {
		s.roles[j].seniors.del(r)
	}
	for sr := range rs.seniors {
		s.roles[sr].juniors.del(r)
	}
	pruneSoD(s.ssd, r)
	pruneSoD(s.dsd, r)
	delete(s.roles, r)
	// Removing the role removed hierarchy paths; activations that relied
	// on them are no longer authorized.
	s.pruneUnauthorizedAllLocked()
	tx.dirty = true
	return nil
}

// pruneSoD drops r from every SoD set, deleting sets that the removal
// makes malformed (fewer members than the set's cardinality requires).
func pruneSoD(sets map[string]*SoDSet, r RoleID) {
	for name, set := range sets {
		set.Roles = removeRole(set.Roles, r)
		if len(set.Roles) < set.N || len(set.Roles) < 2 {
			delete(sets, name)
		}
	}
}

func removeRole(roles []RoleID, r RoleID) []RoleID {
	out := roles[:0]
	for _, x := range roles {
		if x != r {
			out = append(out, x)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Administrative commands: relations

// AssignUser assigns user u to role r, enforcing static SoD.
func (s *Store) AssignUser(u UserID, r RoleID) error { return s.autoTx().AssignUser(u, r) }

// AssignUser is Store.AssignUser within the transaction.
func (tx *Tx) AssignUser(u UserID, r RoleID) error {
	s := tx.lock()
	defer tx.unlock()
	us, rErr := s.userRoleLocked(u, r)
	if rErr != nil {
		return rErr
	}
	if us.assigned.has(r) {
		return fmt.Errorf("user %q already assigned to %q: %w", u, r, ErrExists)
	}
	if name, ok := s.ssdViolationLocked(u, r); !ok {
		return fmt.Errorf("assigning %q to %q violates SSD set %q: %w", u, r, name, ErrSSD)
	}
	us.assigned.add(r)
	tx.dirty = true
	return nil
}

// RawAssignUser assigns without constraint checks (rule action layer).
func (s *Store) RawAssignUser(u UserID, r RoleID) error {
	tx := s.autoTx()
	tx.lock()
	defer tx.unlock()
	us, rErr := s.userRoleLocked(u, r)
	if rErr != nil {
		return rErr
	}
	us.assigned.add(r)
	tx.dirty = true
	return nil
}

// DeassignUser removes the assignment and drops from the user's
// sessions every active role the user is no longer authorized for —
// including roles that had been activated through the deassigned role's
// seniority (ANSI requires active roles to stay a subset of authorized
// roles).
func (s *Store) DeassignUser(u UserID, r RoleID) error { return s.autoTx().DeassignUser(u, r) }

// DeassignUser is Store.DeassignUser within the transaction.
func (tx *Tx) DeassignUser(u UserID, r RoleID) error {
	s := tx.lock()
	defer tx.unlock()
	us, rErr := s.userRoleLocked(u, r)
	if rErr != nil {
		return rErr
	}
	if !us.assigned.has(r) {
		return fmt.Errorf("user %q not assigned to %q: %w", u, r, ErrNotFound)
	}
	us.assigned.del(r)
	s.pruneUnauthorizedUserLocked(u, us)
	tx.dirty = true
	return nil
}

// pruneUnauthorizedUserLocked drops active roles the user is no longer
// authorized for from all of the user's sessions.
func (s *Store) pruneUnauthorizedUserLocked(u UserID, us *userState) {
	auth := s.authorizedRolesLocked(u)
	for sid := range us.sessions {
		sess := s.sessions[sid]
		for r := range sess.active {
			if !auth.has(r) {
				sess.active.del(r)
				if rs, ok := s.roles[r]; ok {
					rs.activeCount--
				}
			}
		}
	}
}

// pruneUnauthorizedAllLocked re-validates every session's active roles;
// used after hierarchy or role-set edits, which can shrink authorized
// sets for any user.
func (s *Store) pruneUnauthorizedAllLocked() {
	for u, us := range s.users {
		if len(us.sessions) > 0 {
			s.pruneUnauthorizedUserLocked(u, us)
		}
	}
}

func (s *Store) userRoleLocked(u UserID, r RoleID) (*userState, error) {
	us, ok := s.users[u]
	if !ok {
		return nil, fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	if _, ok := s.roles[r]; !ok {
		return nil, fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	return us, nil
}

// GrantPermission grants (operation, object) to role r.
func (s *Store) GrantPermission(r RoleID, p Permission) error {
	return s.autoTx().GrantPermission(r, p)
}

// GrantPermission is Store.GrantPermission within the transaction.
func (tx *Tx) GrantPermission(r RoleID, p Permission) error {
	s := tx.lock()
	defer tx.unlock()
	rs, ok := s.roles[r]
	if !ok {
		return fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	if _, dup := rs.perms[p]; dup {
		return fmt.Errorf("permission %v on %q: %w", p, r, ErrExists)
	}
	rs.perms[p] = struct{}{}
	tx.dirty = true
	return nil
}

// RevokePermission revokes (operation, object) from role r.
func (s *Store) RevokePermission(r RoleID, p Permission) error {
	return s.autoTx().RevokePermission(r, p)
}

// RevokePermission is Store.RevokePermission within the transaction.
func (tx *Tx) RevokePermission(r RoleID, p Permission) error {
	s := tx.lock()
	defer tx.unlock()
	rs, ok := s.roles[r]
	if !ok {
		return fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	if _, ok := rs.perms[p]; !ok {
		return fmt.Errorf("permission %v on %q: %w", p, r, ErrNotFound)
	}
	delete(rs.perms, p)
	tx.dirty = true
	return nil
}

// ---------------------------------------------------------------------------
// Role enabling, locking, cardinality knobs

// SetRoleEnabled flips GTRBAC role-enabling state. A disabled role
// cannot be activated; existing activations are untouched (temporal
// rules deactivate explicitly when the policy says so).
func (s *Store) SetRoleEnabled(r RoleID, enabled bool) error {
	tx := s.autoTx()
	tx.lock()
	defer tx.unlock()
	rs, ok := s.roles[r]
	if !ok {
		return fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	rs.enabled = enabled
	tx.dirty = true
	return nil
}

// RoleEnabled reports GTRBAC role-enabling state.
func (s *Store) RoleEnabled(r RoleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs, ok := s.roles[r]
	return ok && rs.enabled
}

// SetRoleCardinality bounds concurrent activations of r (0 = unlimited).
func (s *Store) SetRoleCardinality(r RoleID, n int) error {
	return s.autoTx().SetRoleCardinality(r, n)
}

// SetRoleCardinality is Store.SetRoleCardinality within the
// transaction.
func (tx *Tx) SetRoleCardinality(r RoleID, n int) error {
	s := tx.lock()
	defer tx.unlock()
	rs, ok := s.roles[r]
	if !ok {
		return fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	rs.cardinality = n
	tx.dirty = true
	return nil
}

// SetUserMaxActiveRoles bounds active roles per session for user u
// (0 = unlimited) — the paper's "Jane may hold at most five active
// roles" specialized constraint.
func (s *Store) SetUserMaxActiveRoles(u UserID, n int) error {
	return s.autoTx().SetUserMaxActiveRoles(u, n)
}

// SetUserMaxActiveRoles is Store.SetUserMaxActiveRoles within the
// transaction.
func (tx *Tx) SetUserMaxActiveRoles(u UserID, n int) error {
	s := tx.lock()
	defer tx.unlock()
	if _, ok := s.users[u]; !ok {
		return fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	s.maxActiveRoles[u] = n
	tx.dirty = true
	return nil
}

// SetUserLocked locks or unlocks a user (active-security response). A
// locked user cannot create sessions, activate roles or pass access
// checks.
func (s *Store) SetUserLocked(u UserID, locked bool) error {
	tx := s.autoTx()
	tx.lock()
	defer tx.unlock()
	us, ok := s.users[u]
	if !ok {
		return fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	us.locked = locked
	tx.dirty = true
	return nil
}

// UserLocked reports whether u is locked.
func (s *Store) UserLocked(u UserID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	us, ok := s.users[u]
	return ok && us.locked
}
