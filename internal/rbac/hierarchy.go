package rbac

import "fmt"

// General role hierarchies (ANSI 359-2004 §6.2): a partial order where
// senior roles acquire the permissions of their juniors and junior roles
// acquire the user membership of their seniors.

// AddInheritance makes senior inherit from junior (senior >= junior),
// rejecting self-edges, duplicates, cycles, and — when the edge would
// make a user authorized for an SSD-conflicting role set — static SoD
// violations.
func (s *Store) AddInheritance(senior, junior RoleID) error {
	return s.autoTx().AddInheritance(senior, junior)
}

// AddInheritance is Store.AddInheritance within the transaction.
func (tx *Tx) AddInheritance(senior, junior RoleID) error {
	s := tx.lock()
	defer tx.unlock()
	sr, ok := s.roles[senior]
	if !ok {
		return fmt.Errorf("role %q: %w", senior, ErrNotFound)
	}
	jr, ok := s.roles[junior]
	if !ok {
		return fmt.Errorf("role %q: %w", junior, ErrNotFound)
	}
	if senior == junior {
		return fmt.Errorf("self-inheritance on %q: %w", senior, ErrCycle)
	}
	if sr.juniors.has(junior) {
		return fmt.Errorf("inheritance %q -> %q: %w", senior, junior, ErrExists)
	}
	// A cycle would exist iff senior is already (transitively) junior to
	// junior.
	if s.inClosureLocked(junior, senior, func(r *roleState) roleSet { return r.juniors }) {
		return fmt.Errorf("inheritance %q -> %q: %w", senior, junior, ErrCycle)
	}
	// Adding the edge extends every senior-side user's authorized role
	// set, and every session holding a senior-side role active, by
	// junior's junior-closure; verify SSD and DSD still hold.
	sr.juniors.add(junior)
	jr.seniors.add(senior)
	if name, ok := s.ssdGloballyOKLocked(); !ok {
		sr.juniors.del(junior)
		jr.seniors.del(senior)
		return fmt.Errorf("inheritance %q -> %q violates SSD set %q: %w", senior, junior, name, ErrSSD)
	}
	if name, sid, ok := s.dsdAfterEdgeOKLocked(senior); !ok {
		sr.juniors.del(junior)
		jr.seniors.del(senior)
		return fmt.Errorf("inheritance %q -> %q puts session %q over DSD set %q: %w", senior, junior, sid, name, ErrDSD)
	}
	tx.dirty = true
	return nil
}

// DeleteInheritance removes the immediate edge senior -> junior.
func (s *Store) DeleteInheritance(senior, junior RoleID) error {
	return s.autoTx().DeleteInheritance(senior, junior)
}

// DeleteInheritance is Store.DeleteInheritance within the transaction.
func (tx *Tx) DeleteInheritance(senior, junior RoleID) error {
	s := tx.lock()
	defer tx.unlock()
	sr, ok := s.roles[senior]
	if !ok {
		return fmt.Errorf("role %q: %w", senior, ErrNotFound)
	}
	if _, ok := s.roles[junior]; !ok {
		return fmt.Errorf("role %q: %w", junior, ErrNotFound)
	}
	if !sr.juniors.has(junior) {
		return fmt.Errorf("inheritance %q -> %q: %w", senior, junior, ErrNotFound)
	}
	sr.juniors.del(junior)
	s.roles[junior].seniors.del(senior)
	// Authorized sets shrank; activations made through the removed edge
	// must not survive it.
	s.pruneUnauthorizedAllLocked()
	tx.dirty = true
	return nil
}

// inClosureLocked reports whether target is reachable from start via the
// step function (juniors for downward closure, seniors for upward).
func (s *Store) inClosureLocked(start, target RoleID, step func(*roleState) roleSet) bool {
	if start == target {
		return true
	}
	seen := roleSet{start: struct{}{}}
	stack := []RoleID{start}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range step(s.roles[r]) {
			if next == target {
				return true
			}
			if !seen.has(next) {
				seen.add(next)
				stack = append(stack, next)
			}
		}
	}
	return false
}

// closureLocked returns start plus everything reachable via step.
func (s *Store) closureLocked(start RoleID, step func(*roleState) roleSet) roleSet {
	out := roleSet{start: struct{}{}}
	stack := []RoleID{start}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range step(s.roles[r]) {
			if !out.has(next) {
				out.add(next)
				stack = append(stack, next)
			}
		}
	}
	return out
}

// juniorsClosureLocked returns r and all roles r inherits from.
func (s *Store) juniorsClosureLocked(r RoleID) roleSet {
	return s.closureLocked(r, func(st *roleState) roleSet { return st.juniors })
}

// seniorsClosureLocked returns r and all roles that inherit from r.
func (s *Store) seniorsClosureLocked(r RoleID) roleSet {
	return s.closureLocked(r, func(st *roleState) roleSet { return st.seniors })
}

// authorizedRolesLocked returns the authorized role set of u: every role
// some assigned role is senior to (including the assigned roles).
func (s *Store) authorizedRolesLocked(u UserID) roleSet {
	us, ok := s.users[u]
	if !ok {
		return roleSet{}
	}
	out := roleSet{}
	for r := range us.assigned {
		for j := range s.juniorsClosureLocked(r) {
			out.add(j)
		}
	}
	return out
}

// ImmediateJuniors returns the direct juniors of r, sorted.
func (s *Store) ImmediateJuniors(r RoleID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs, ok := s.roles[r]
	if !ok {
		return nil, fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	return rs.juniors.sorted(), nil
}

// Descendants returns r plus every role r inherits from (junior
// closure), sorted.
func (s *Store) Descendants(r RoleID) ([]RoleID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.roles[r]; !ok {
		return nil, fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	return s.juniorsClosureLocked(r).sorted(), nil
}
