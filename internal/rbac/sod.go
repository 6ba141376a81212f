package rbac

import (
	"fmt"
	"sort"
)

// Separation-of-duty relations (ANSI 359-2004 §6.3, §6.4). A static SoD
// set (Roles, N) forbids any user from being authorized for N or more of
// the member roles; a dynamic SoD set forbids any single session from
// having N or more of them active at once. Hierarchies count: a user
// assigned to a senior role is authorized for its juniors, so the
// paper's enterprise XYZ inherits the (PC, AC) conflict up to PM and AM.

// validateSoD checks the standard's well-formedness requirements.
func (s *Store) validateSoDLocked(set SoDSet) error {
	if set.Name == "" {
		return fmt.Errorf("SoD set with empty name: %w", ErrNotFound)
	}
	if set.N < 2 || set.N > len(set.Roles) {
		return fmt.Errorf("SoD set %q: cardinality %d outside [2,%d]: %w",
			set.Name, set.N, len(set.Roles), ErrInvariant)
	}
	seen := roleSet{}
	for _, r := range set.Roles {
		if _, ok := s.roles[r]; !ok {
			return fmt.Errorf("SoD set %q references role %q: %w", set.Name, r, ErrNotFound)
		}
		if seen.has(r) {
			return fmt.Errorf("SoD set %q repeats role %q: %w", set.Name, r, ErrExists)
		}
		seen.add(r)
	}
	return nil
}

// CreateSSD installs a static SoD relation after verifying that no
// existing user assignment already violates it.
func (s *Store) CreateSSD(set SoDSet) error { return s.autoTx().CreateSSD(set) }

// CreateSSD is Store.CreateSSD within the transaction.
func (tx *Tx) CreateSSD(set SoDSet) error {
	s := tx.lock()
	defer tx.unlock()
	if err := s.validateSoDLocked(set); err != nil {
		return err
	}
	if _, dup := s.ssd[set.Name]; dup {
		return fmt.Errorf("SSD set %q: %w", set.Name, ErrExists)
	}
	cp := set
	cp.Roles = append([]RoleID(nil), set.Roles...)
	s.ssd[set.Name] = &cp
	for u := range s.users {
		if s.countAuthorizedInLocked(u, &cp) >= cp.N {
			delete(s.ssd, set.Name)
			return fmt.Errorf("SSD set %q already violated by user %q: %w", set.Name, u, ErrSSD)
		}
	}
	tx.dirty = true
	return nil
}

// DeleteSSD removes a static SoD relation.
func (s *Store) DeleteSSD(name string) error { return s.autoTx().DeleteSSD(name) }

// DeleteSSD is Store.DeleteSSD within the transaction.
func (tx *Tx) DeleteSSD(name string) error {
	s := tx.lock()
	defer tx.unlock()
	if _, ok := s.ssd[name]; !ok {
		return fmt.Errorf("SSD set %q: %w", name, ErrNotFound)
	}
	delete(s.ssd, name)
	tx.dirty = true
	return nil
}

// CreateDSD installs a dynamic SoD relation after verifying no live
// session already violates it.
func (s *Store) CreateDSD(set SoDSet) error { return s.autoTx().CreateDSD(set) }

// CreateDSD is Store.CreateDSD within the transaction.
func (tx *Tx) CreateDSD(set SoDSet) error {
	s := tx.lock()
	defer tx.unlock()
	if err := s.validateSoDLocked(set); err != nil {
		return err
	}
	if _, dup := s.dsd[set.Name]; dup {
		return fmt.Errorf("DSD set %q: %w", set.Name, ErrExists)
	}
	cp := set
	cp.Roles = append([]RoleID(nil), set.Roles...)
	for sid, sess := range s.sessions {
		if s.countActiveInLocked(sess, &cp) >= cp.N {
			return fmt.Errorf("DSD set %q already violated by session %q: %w", set.Name, sid, ErrDSD)
		}
	}
	s.dsd[set.Name] = &cp
	tx.dirty = true
	return nil
}

// DeleteDSD removes a dynamic SoD relation.
func (s *Store) DeleteDSD(name string) error { return s.autoTx().DeleteDSD(name) }

// DeleteDSD is Store.DeleteDSD within the transaction.
func (tx *Tx) DeleteDSD(name string) error {
	s := tx.lock()
	defer tx.unlock()
	if _, ok := s.dsd[name]; !ok {
		return fmt.Errorf("DSD set %q: %w", name, ErrNotFound)
	}
	delete(s.dsd, name)
	tx.dirty = true
	return nil
}

// SSDSets returns the static SoD relations, sorted by name.
func (s *Store) SSDSets() []SoDSet {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return copySets(s.ssd)
}

func copySets(m map[string]*SoDSet) []SoDSet {
	out := make([]SoDSet, 0, len(m))
	for _, set := range m {
		cp := *set
		cp.Roles = append([]RoleID(nil), set.Roles...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// countAuthorizedInLocked counts how many of the set's roles user u is
// authorized for (assigned or inherited through seniority).
func (s *Store) countAuthorizedInLocked(u UserID, set *SoDSet) int {
	auth := s.authorizedRolesLocked(u)
	n := 0
	for _, r := range set.Roles {
		if auth.has(r) {
			n++
		}
	}
	return n
}

// countActiveInLocked counts how many of the set's roles the session has
// active, counting a senior active role as activating its juniors.
func (s *Store) countActiveInLocked(sess *sessionState, set *SoDSet) int {
	covered := roleSet{}
	for r := range sess.active {
		for j := range s.juniorsClosureLocked(r) {
			covered.add(j)
		}
	}
	n := 0
	for _, r := range set.Roles {
		if covered.has(r) {
			n++
		}
	}
	return n
}

// ssdViolationLocked reports whether assigning role r to user u would
// keep every SSD set satisfied; on failure it names the violated set.
func (s *Store) ssdViolationLocked(u UserID, r RoleID) (string, bool) {
	if len(s.ssd) == 0 {
		return "", true
	}
	// Authorized roles after the assignment = current U juniors*(r).
	auth := s.authorizedRolesLocked(u)
	for j := range s.juniorsClosureLocked(r) {
		auth.add(j)
	}
	for name, set := range s.ssd {
		n := 0
		for _, m := range set.Roles {
			if auth.has(m) {
				n++
			}
		}
		if n >= set.N {
			return name, false
		}
	}
	return "", true
}

// ssdGloballyOKLocked re-verifies every SSD set against every user;
// used after hierarchy edits which can extend authorized sets.
func (s *Store) ssdGloballyOKLocked() (string, bool) {
	for name, set := range s.ssd {
		for u := range s.users {
			if s.countAuthorizedInLocked(u, set) >= set.N {
				return name, false
			}
		}
	}
	return "", true
}

// dsdAfterEdgeOKLocked reports whether every live session still
// satisfies every DSD set after an inheritance edge below senior was
// added. Only sessions holding senior or one of its seniors active gain
// coverage from the edge, so only those are counted; on failure it
// names the violated set and session.
func (s *Store) dsdAfterEdgeOKLocked(senior RoleID) (string, SessionID, bool) {
	if len(s.dsd) == 0 {
		return "", "", true
	}
	above := s.seniorsClosureLocked(senior)
	for sid, sess := range s.sessions {
		touched := false
		for r := range sess.active {
			if above.has(r) {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		for name, set := range s.dsd {
			if s.countActiveInLocked(sess, set) >= set.N {
				return name, sid, false
			}
		}
	}
	return "", "", true
}

// CheckSSDAssign is the predicate form of the SSD assignment check: it
// reports whether assigning r to u keeps every SSD set satisfied (the
// condition an administrative OWTE rule evaluates).
func (s *Store) CheckSSDAssign(u UserID, r RoleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.users[u]; !ok {
		return false
	}
	if _, ok := s.roles[r]; !ok {
		return false
	}
	_, ok := s.ssdViolationLocked(u, r)
	return ok
}

// CheckDynamicSoD is the paper's checkDynamicSoDSet(user, role): it
// reports whether adding role r to the session's active role set keeps
// every DSD set satisfied.
func (s *Store) CheckDynamicSoD(sid SessionID, r RoleID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[sid]
	if !ok {
		return false
	}
	if _, ok := s.roles[r]; !ok {
		return false
	}
	return s.dsdSatisfiedLocked(sess, r)
}

func (s *Store) dsdSatisfiedLocked(sess *sessionState, r RoleID) bool {
	if len(s.dsd) == 0 {
		return true
	}
	covered := roleSet{}
	for ar := range sess.active {
		for j := range s.juniorsClosureLocked(ar) {
			covered.add(j)
		}
	}
	for j := range s.juniorsClosureLocked(r) {
		covered.add(j)
	}
	for _, set := range s.dsd {
		n := 0
		for _, m := range set.Roles {
			if covered.has(m) {
				n++
			}
		}
		if n >= set.N {
			return false
		}
	}
	return true
}
