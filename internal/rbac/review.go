package rbac

import (
	"fmt"
	"sort"
)

// Review functions (ANSI 359-2004 §6.1.3 and the advanced review
// functions of §6.2/§6.3). All results are sorted for deterministic
// output in tests and tools.

// Users returns all user ids, sorted.
func (s *Store) Users() []UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]UserID, 0, len(s.users))
	for u := range s.users {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Roles returns all role ids, sorted.
func (s *Store) Roles() []RoleID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]RoleID, 0, len(s.roles))
	for r := range s.roles {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sessions returns all live session ids, sorted.
func (s *Store) Sessions() []SessionID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SessionID, 0, len(s.sessions))
	for sid := range s.sessions {
		out = append(out, sid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AssignedUsers returns the users directly assigned to role r.
//
//rbacvet:api ANSI INCITS 359 review function
func (s *Store) AssignedUsers(r RoleID) ([]UserID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.roles[r]; !ok {
		return nil, fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	var out []UserID
	for u, us := range s.users {
		if us.assigned.has(r) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// AssignedRoles returns the roles directly assigned to user u.
func (s *Store) AssignedRoles(u UserID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	us, ok := s.users[u]
	if !ok {
		return nil, fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	return us.assigned.sorted(), nil
}

// AuthorizedUsers returns the users assigned to r or to any senior of r
// (hierarchical review function).
//
//rbacvet:api ANSI INCITS 359 review function
func (s *Store) AuthorizedUsers(r RoleID) ([]UserID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.roles[r]; !ok {
		return nil, fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	seniors := s.seniorsClosureLocked(r)
	var out []UserID
	for u, us := range s.users {
		for sr := range seniors {
			if us.assigned.has(sr) {
				out = append(out, u)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// AuthorizedRoles returns every role user u is authorized for: assigned
// roles plus everything they inherit from.
func (s *Store) AuthorizedRoles(u UserID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.users[u]; !ok {
		return nil, fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	return s.authorizedRolesLocked(u).sorted(), nil
}

// RolePermissions returns the permissions granted directly to r.
func (s *Store) RolePermissions(r RoleID) ([]Permission, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs, ok := s.roles[r]
	if !ok {
		return nil, fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	return sortPerms(rs.perms), nil
}

// EffectivePermissions returns the permissions of r plus everything
// inherited from its juniors (hierarchical review function).
//
//rbacvet:api ANSI INCITS 359 review function
func (s *Store) EffectivePermissions(r RoleID) ([]Permission, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.roles[r]; !ok {
		return nil, fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	acc := make(map[Permission]struct{})
	for j := range s.juniorsClosureLocked(r) {
		for p := range s.roles[j].perms {
			acc[p] = struct{}{}
		}
	}
	return sortPerms(acc), nil
}

// UserPermissions returns every permission u can obtain through some
// authorized role.
//
//rbacvet:api ANSI INCITS 359 review function
func (s *Store) UserPermissions(u UserID) ([]Permission, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.users[u]; !ok {
		return nil, fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	acc := make(map[Permission]struct{})
	for r := range s.authorizedRolesLocked(u) {
		for p := range s.roles[r].perms {
			acc[p] = struct{}{}
		}
	}
	return sortPerms(acc), nil
}

// SessionRoles returns the roles active in session sid (the paper's
// getSessionRoles).
func (s *Store) SessionRoles(sid SessionID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[sid]
	if !ok {
		return nil, fmt.Errorf("session %q: %w", sid, ErrNotFound)
	}
	return sess.active.sorted(), nil
}

// SessionPermissions returns the permissions available to the session
// through its active roles (including inherited permissions).
//
//rbacvet:api ANSI INCITS 359 review function
func (s *Store) SessionPermissions(sid SessionID) ([]Permission, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[sid]
	if !ok {
		return nil, fmt.Errorf("session %q: %w", sid, ErrNotFound)
	}
	acc := make(map[Permission]struct{})
	for r := range sess.active {
		for j := range s.juniorsClosureLocked(r) {
			for p := range s.roles[j].perms {
				acc[p] = struct{}{}
			}
		}
	}
	return sortPerms(acc), nil
}

// SessionsWithRole returns the live sessions in which role r is active,
// sorted.
func (s *Store) SessionsWithRole(r RoleID) []SessionID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []SessionID
	for sid, sess := range s.sessions {
		if sess.active.has(r) {
			out = append(out, sid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UserSessions returns the live sessions owned by u.
//
//rbacvet:api ANSI INCITS 359 review function
func (s *Store) UserSessions(u UserID) ([]SessionID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	us, ok := s.users[u]
	if !ok {
		return nil, fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	out := make([]SessionID, 0, len(us.sessions))
	for sid := range us.sessions {
		out = append(out, sid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func sortPerms(m map[Permission]struct{}) []Permission {
	out := make([]Permission, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Operation < out[j].Operation
	})
	return out
}

// Counts summarizes store sizes for tools and experiments.
type Counts struct {
	Users, Roles, Sessions, SSD, DSD int
	Assignments, Permissions         int
	HierarchyEdges                   int
}

// Count returns store sizes.
func (s *Store) Count() Counts {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := Counts{
		Users: len(s.users), Roles: len(s.roles), Sessions: len(s.sessions),
		SSD: len(s.ssd), DSD: len(s.dsd),
	}
	for _, us := range s.users {
		c.Assignments += len(us.assigned)
	}
	for _, rs := range s.roles {
		c.Permissions += len(rs.perms)
		c.HierarchyEdges += len(rs.juniors)
	}
	return c
}
