package rbac

import (
	"fmt"
	"sort"
)

// Snapshot is a point-in-time, serialization-friendly copy of the whole
// RBAC database. Field order and slice sorting are deterministic so
// snapshots diff and hash stably.
type Snapshot struct {
	Users      []UserSnapshot    `json:"users"`
	Roles      []RoleSnapshot    `json:"roles"`
	Sessions   []SessionSnapshot `json:"sessions"`
	SSD        []SoDSet          `json:"ssd,omitempty"`
	DSD        []SoDSet          `json:"dsd,omitempty"`
	SessionSeq int               `json:"sessionSeq"`
}

// UserSnapshot serializes one user.
type UserSnapshot struct {
	Name           UserID   `json:"name"`
	Assigned       []RoleID `json:"assigned,omitempty"`
	Locked         bool     `json:"locked,omitempty"`
	MaxActiveRoles int      `json:"maxActiveRoles,omitempty"`
}

// RoleSnapshot serializes one role.
type RoleSnapshot struct {
	Name        RoleID       `json:"name"`
	Permissions []Permission `json:"permissions,omitempty"`
	Juniors     []RoleID     `json:"juniors,omitempty"`
	Enabled     bool         `json:"enabled"`
	Cardinality int          `json:"cardinality,omitempty"`
}

// SessionSnapshot serializes one live session.
type SessionSnapshot struct {
	ID     SessionID `json:"id"`
	User   UserID    `json:"user"`
	Active []RoleID  `json:"active,omitempty"`
}

// Snapshot copies the store's full state.
func (s *Store) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := Snapshot{SessionSeq: s.sessionSeq}

	for u, us := range s.users {
		snap.Users = append(snap.Users, UserSnapshot{
			Name:           u,
			Assigned:       us.assigned.sorted(),
			Locked:         us.locked,
			MaxActiveRoles: s.maxActiveRoles[u],
		})
	}
	sort.Slice(snap.Users, func(i, j int) bool { return snap.Users[i].Name < snap.Users[j].Name })

	for r, rs := range s.roles {
		snap.Roles = append(snap.Roles, RoleSnapshot{
			Name:        r,
			Permissions: sortPerms(rs.perms),
			Juniors:     rs.juniors.sorted(),
			Enabled:     rs.enabled,
			Cardinality: rs.cardinality,
		})
	}
	sort.Slice(snap.Roles, func(i, j int) bool { return snap.Roles[i].Name < snap.Roles[j].Name })

	for sid, sess := range s.sessions {
		snap.Sessions = append(snap.Sessions, SessionSnapshot{
			ID: sid, User: sess.user, Active: sess.active.sorted(),
		})
	}
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].ID < snap.Sessions[j].ID })

	snap.SSD = copySets(s.ssd)
	snap.DSD = copySets(s.dsd)
	return snap
}

// Restore replaces the store's state with the snapshot's. On error the
// store is left empty (the snapshot was internally inconsistent).
func (s *Store) Restore(snap Snapshot) error { return s.autoTx().Restore(snap) }

// Restore is Store.Restore within the transaction.
func (tx *Tx) Restore(snap Snapshot) error {
	s := tx.lock()
	defer tx.unlock()
	// State is replaced wholesale on every path out of here — success or
	// the fail() cleanup — so the transaction is dirty either way.
	tx.dirty = true
	s.users = make(map[UserID]*userState, len(snap.Users))
	s.roles = make(map[RoleID]*roleState, len(snap.Roles))
	s.sessions = make(map[SessionID]*sessionState, len(snap.Sessions))
	s.ssd = make(map[string]*SoDSet, len(snap.SSD))
	s.dsd = make(map[string]*SoDSet, len(snap.DSD))
	s.maxActiveRoles = make(map[UserID]int)
	s.sessionSeq = snap.SessionSeq

	fail := func(format string, args ...any) error {
		// Leave a clean store rather than a half-restored one.
		s.users = make(map[UserID]*userState)
		s.roles = make(map[RoleID]*roleState)
		s.sessions = make(map[SessionID]*sessionState)
		s.ssd = make(map[string]*SoDSet)
		s.dsd = make(map[string]*SoDSet)
		return fmt.Errorf("rbac: restore: "+format, args...)
	}

	for _, r := range snap.Roles {
		if _, dup := s.roles[r.Name]; dup {
			return fail("duplicate role %q", r.Name)
		}
		rs := &roleState{
			perms:       make(map[Permission]struct{}, len(r.Permissions)),
			juniors:     roleSet{},
			seniors:     roleSet{},
			enabled:     r.Enabled,
			cardinality: r.Cardinality,
		}
		for _, p := range r.Permissions {
			rs.perms[p] = struct{}{}
		}
		s.roles[r.Name] = rs
	}
	for _, r := range snap.Roles {
		for _, j := range r.Juniors {
			jr, ok := s.roles[j]
			if !ok {
				return fail("role %q lists unknown junior %q", r.Name, j)
			}
			s.roles[r.Name].juniors.add(j)
			jr.seniors.add(r.Name)
		}
	}
	for _, u := range snap.Users {
		if _, dup := s.users[u.Name]; dup {
			return fail("duplicate user %q", u.Name)
		}
		us := &userState{assigned: roleSet{}, sessions: map[SessionID]struct{}{}, locked: u.Locked}
		for _, r := range u.Assigned {
			if _, ok := s.roles[r]; !ok {
				return fail("user %q assigned to unknown role %q", u.Name, r)
			}
			us.assigned.add(r)
		}
		s.users[u.Name] = us
		if u.MaxActiveRoles > 0 {
			s.maxActiveRoles[u.Name] = u.MaxActiveRoles
		}
	}
	for _, sess := range snap.Sessions {
		us, ok := s.users[sess.User]
		if !ok {
			return fail("session %q owned by unknown user %q", sess.ID, sess.User)
		}
		st := &sessionState{user: sess.User, active: roleSet{}}
		for _, r := range sess.Active {
			rs, ok := s.roles[r]
			if !ok {
				return fail("session %q activates unknown role %q", sess.ID, r)
			}
			st.active.add(r)
			rs.activeCount++
		}
		s.sessions[sess.ID] = st
		us.sessions[sess.ID] = struct{}{}
	}
	for _, set := range snap.SSD {
		cp := set
		cp.Roles = append([]RoleID(nil), set.Roles...)
		if err := s.validateSoDLocked(cp); err != nil {
			return fail("SSD %q: %v", set.Name, err)
		}
		s.ssd[set.Name] = &cp
	}
	for _, set := range snap.DSD {
		cp := set
		cp.Roles = append([]RoleID(nil), set.Roles...)
		if err := s.validateSoDLocked(cp); err != nil {
			return fail("DSD %q: %v", set.Name, err)
		}
		s.dsd[set.Name] = &cp
	}
	return nil
}
