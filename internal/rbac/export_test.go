package rbac

import "fmt"

// Only this package's tests call the declarations below, so they
// live beside the tests (rbacvet's unused pass keeps it that way).

// CheckRoleCardinality is the paper's CardinalityR1(INCR) predicate
// half: it reports whether one more activation of r stays within the
// role's cardinality bound.
func (s *Store) CheckRoleCardinality(r RoleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs, ok := s.roles[r]
	if !ok {
		return false
	}
	return rs.cardinality == 0 || rs.activeCount < rs.cardinality
}

// CheckUserActiveBudget reports whether the session can hold one more
// active role under the owner's max-active-roles bound.
func (s *Store) CheckUserActiveBudget(sid SessionID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[sid]
	if !ok {
		return false
	}
	limit := s.maxActiveRoles[sess.user]
	return limit == 0 || len(sess.active) < limit
}

// DSDSets returns the dynamic SoD relations, sorted by name.
func (s *Store) DSDSets() []SoDSet {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return copySets(s.dsd)
}

// ImmediateSeniors returns the direct seniors of r, sorted.
func (s *Store) ImmediateSeniors(r RoleID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs, ok := s.roles[r]
	if !ok {
		return nil, fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	return rs.seniors.sorted(), nil
}

// Ascendants returns r plus every role that inherits from r (senior
// closure), sorted.
func (s *Store) Ascendants(r RoleID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.roles[r]; !ok {
		return nil, fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	return s.seniorsClosureLocked(r).sorted(), nil
}
