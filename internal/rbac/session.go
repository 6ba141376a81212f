package rbac

import "fmt"

// Supporting system functions (ANSI 359-2004 §6.1.2): session creation,
// role activation and the access-check decision function.

// CreateSession creates a session for user u and returns its id.
// Locked users cannot create sessions.
func (s *Store) CreateSession(u UserID) (SessionID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	us, ok := s.users[u]
	if !ok {
		return "", fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	if us.locked {
		return "", fmt.Errorf("user %q: %w", u, ErrUserLocked)
	}
	s.sessionSeq++
	sid := SessionID(fmt.Sprintf("s%d", s.sessionSeq))
	s.sessions[sid] = &sessionState{user: u, active: roleSet{}}
	us.sessions[sid] = struct{}{}
	s.publishSessionLocked(sid)
	return sid, nil
}

// DeleteSession ends a session, releasing role-cardinality slots.
func (s *Store) DeleteSession(sid SessionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[sid]; !ok {
		return fmt.Errorf("session %q: %w", sid, ErrNotFound)
	}
	s.deleteSessionLocked(sid)
	s.publishSessionLocked(sid)
	return nil
}

func (s *Store) deleteSessionLocked(sid SessionID) {
	sess := s.sessions[sid]
	for r := range sess.active {
		if rs, ok := s.roles[r]; ok {
			rs.activeCount--
		}
	}
	if us, ok := s.users[sess.user]; ok {
		delete(us.sessions, sid)
	}
	delete(s.sessions, sid)
}

// SessionExists reports whether sid names a live session (the paper's
// "sessionId IN sessionL"). Reads the published view: lock-free.
func (s *Store) SessionExists(sid SessionID) bool {
	_, ok := s.view.Load().session(sid)
	return ok
}

// SessionUser returns the owner of a session. Reads the published view:
// lock-free.
func (s *Store) SessionUser(sid SessionID) (UserID, error) {
	sv, ok := s.view.Load().session(sid)
	if !ok {
		return "", fmt.Errorf("session %q: %w", sid, ErrNotFound)
	}
	return sv.user, nil
}

// CheckUserSession is the paper's "sessionId IN checkUserSessions(user)":
// it reports whether sid is a live session owned by u. Reads the
// published view: lock-free.
func (s *Store) CheckUserSession(u UserID, sid SessionID) bool {
	sv, ok := s.view.Load().session(sid)
	return ok && sv.user == u
}

// UserExists reports whether u is a known user (the paper's
// "user IN userL").
func (s *Store) UserExists(u UserID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.users[u]
	return ok
}

// RoleExists reports whether r is a known role.
func (s *Store) RoleExists(r RoleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.roles[r]
	return ok
}

// ---------------------------------------------------------------------------
// Predicates used as OWTE rule conditions

// CheckAssigned is the paper's checkAssignedR1(user): direct assignment
// only (core RBAC, rule AAR1).
func (s *Store) CheckAssigned(u UserID, r RoleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	us, ok := s.users[u]
	if !ok {
		return false
	}
	return us.assigned.has(r)
}

// CheckAuthorized is the paper's checkAuthorizationR1(user): assignment
// to the role or to any of its seniors (hierarchical RBAC, rule AAR2).
func (s *Store) CheckAuthorized(u UserID, r RoleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	us, ok := s.users[u]
	if !ok {
		return false
	}
	if _, ok := s.roles[r]; !ok {
		return false
	}
	if us.assigned.has(r) {
		return true
	}
	for senior := range s.seniorsClosureLocked(r) {
		if us.assigned.has(senior) {
			return true
		}
	}
	return false
}

// CheckSessionRole is the paper's "R1 NOT IN checkSessionRoles(user)"
// inverted: it reports whether r is currently active in sid.
func (s *Store) CheckSessionRole(sid SessionID, r RoleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[sid]
	return ok && sess.active.has(r)
}

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

// RoleActiveCount reports how many sessions have r active.
func (s *Store) RoleActiveCount(r RoleID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs, ok := s.roles[r]
	if !ok {
		return 0
	}
	return rs.activeCount
}

// ---------------------------------------------------------------------------
// Raw mutators used as OWTE rule actions

// RawAddSessionRole is the paper's addSessionRoleR1(sessionId): it adds
// r to the session's active role set and bumps the role's activation
// counter, without re-checking constraints.
func (s *Store) RawAddSessionRole(sid SessionID, r RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[sid]
	if !ok {
		return fmt.Errorf("session %q: %w", sid, ErrNotFound)
	}
	rs, ok := s.roles[r]
	if !ok {
		return fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	if sess.active.has(r) {
		return fmt.Errorf("role %q in session %q: %w", r, sid, ErrActive)
	}
	sess.active.add(r)
	rs.activeCount++
	s.publishSessionLocked(sid)
	return nil
}

// RawDropSessionRole is the paper's removeSessionRoleR1(sessionId).
func (s *Store) RawDropSessionRole(sid SessionID, r RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[sid]
	if !ok {
		return fmt.Errorf("session %q: %w", sid, ErrNotFound)
	}
	rs, ok := s.roles[r]
	if !ok {
		return fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	if !sess.active.has(r) {
		return fmt.Errorf("role %q not active in session %q: %w", r, sid, ErrNotFound)
	}
	sess.active.del(r)
	rs.activeCount--
	s.publishSessionLocked(sid)
	return nil
}

// ---------------------------------------------------------------------------
// Enforcing (ANSI functional specification) layer

// AddActiveRole activates r in session sid, enforcing the full
// activation pipeline the paper's AAR rules implement: session/user
// validity, lock state, role enabling, assignment or authorization
// (hierarchies), duplicate activation, dynamic SoD, role cardinality and
// the user's active-role budget.
func (s *Store) AddActiveRole(u UserID, sid SessionID, r RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	us, ok := s.users[u]
	if !ok {
		return fmt.Errorf("user %q: %w", u, ErrNotFound)
	}
	if us.locked {
		return fmt.Errorf("user %q: %w", u, ErrUserLocked)
	}
	sess, ok := s.sessions[sid]
	if !ok {
		return fmt.Errorf("session %q: %w", sid, ErrNotFound)
	}
	if sess.user != u {
		return fmt.Errorf("session %q owned by %q not %q: %w", sid, sess.user, u, ErrNotOwner)
	}
	rs, ok := s.roles[r]
	if !ok {
		return fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	if !rs.enabled {
		return fmt.Errorf("role %q: %w", r, ErrRoleDisabled)
	}
	if sess.active.has(r) {
		return fmt.Errorf("role %q in session %q: %w", r, sid, ErrActive)
	}
	authorized := us.assigned.has(r)
	if !authorized {
		for senior := range s.seniorsClosureLocked(r) {
			if us.assigned.has(senior) {
				authorized = true
				break
			}
		}
	}
	if !authorized {
		return fmt.Errorf("user %q role %q: %w", u, r, ErrNotAssigned)
	}
	if !s.dsdSatisfiedLocked(sess, r) {
		return fmt.Errorf("activating %q in session %q: %w", r, sid, ErrDSD)
	}
	if rs.cardinality != 0 && rs.activeCount >= rs.cardinality {
		return fmt.Errorf("role %q at cardinality %d: %w", r, rs.cardinality, ErrCardinality)
	}
	if limit := s.maxActiveRoles[u]; limit != 0 && len(sess.active) >= limit {
		return fmt.Errorf("user %q at max active roles %d: %w", u, limit, ErrCardinality)
	}
	sess.active.add(r)
	rs.activeCount++
	s.publishSessionLocked(sid)
	return nil
}

// DropActiveRole deactivates r in session sid.
func (s *Store) DropActiveRole(u UserID, sid SessionID, r RoleID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[sid]
	if !ok {
		return fmt.Errorf("session %q: %w", sid, ErrNotFound)
	}
	if sess.user != u {
		return fmt.Errorf("session %q owned by %q not %q: %w", sid, sess.user, u, ErrNotOwner)
	}
	rs, ok := s.roles[r]
	if !ok {
		return fmt.Errorf("role %q: %w", r, ErrNotFound)
	}
	if !sess.active.has(r) {
		return fmt.Errorf("role %q not active in session %q: %w", r, sid, ErrNotFound)
	}
	sess.active.del(r)
	rs.activeCount--
	s.publishSessionLocked(sid)
	return nil
}

// CheckAccess is the ANSI decision function: whether the session may
// perform operation on object. An active role grants its own
// permissions plus those of every role it inherits from. Reads the
// published view — one atomic load, no lock, no allocation — so
// concurrent decisions scale with cores.
func (s *Store) CheckAccess(sid SessionID, p Permission) bool {
	sv, ok := s.view.Load().session(sid)
	if !ok || sv.locked {
		return false
	}
	for _, eff := range sv.perms {
		if _, ok := eff[p]; ok {
			return true
		}
	}
	return false
}
