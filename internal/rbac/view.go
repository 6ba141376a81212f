package rbac

import "maps"

// Copy-on-write read path. The hot enforcement predicates — CheckAccess
// and the session lookups the CA1 rule and the facade issue per request
// — read an immutable accessView published through an atomic pointer:
// one pointer load, no lock traffic, no allocation. Mutators rebuild
// the view under the store mutex before returning.
//
// Two publication grades keep writer cost proportional to the change:
//
//   - policy mutations (users, roles, permissions, hierarchy, SoD,
//     locks, restore) recompute the per-role effective-permission maps
//     and every session projection, and bump the view epoch — the
//     decision fast path invalidates its cache wholesale on the bump;
//   - session mutations (create/delete session, role (de)activation)
//     path-copy a fixed two-level index of small session maps: the
//     view's array of viewFanout shard pointers, the touched shard's
//     array of viewFanout leaf maps, and the one leaf the session
//     hashes to, with only that session rebuilt in it. Everything else
//     — the effective-permission maps, the other shards and leaves — is
//     shared with the previous view. A leaf holds live sessions /
//     viewFanout², so the cost is flat up to tens of thousands of
//     sessions; the epoch is unchanged and the fast path invalidates
//     just that session.

// viewFanout is the width of both levels of the session index, a power
// of two: viewFanout shards of viewFanout leaf maps each.
const viewFanout = 64

// sessionLeaves is one shard of the session index: the leaf maps of the
// sessions whose hash selects this shard, by the hash's next bits. A nil
// leaf is an empty one.
type sessionLeaves [viewFanout]map[SessionID]*sessionView

// accessView is the immutable read-side projection of the store. Fields
// are written only by the builders below and never after publication.
//
// rbacvet:snapshot
type accessView struct {
	// epoch counts policy publications; the fast path tags cache
	// entries with it.
	epoch uint64
	// perms maps each role to its effective permission set: the union
	// of the role's own permissions and those of every junior it
	// inherits. Maps are freshly built per policy publication and never
	// alias the store's canonical maps.
	perms map[RoleID]map[Permission]struct{}
	// sessions projects each live session for the access decision,
	// indexed by sessionSlot; a nil shard is an empty one. Views share
	// the shards and leaf maps a publication did not touch.
	sessions [viewFanout]*sessionLeaves
}

// session returns sid's projection in the view.
func (v *accessView) session(sid SessionID) (*sessionView, bool) {
	shard, leaf := sessionSlot(sid)
	leaves := v.sessions[shard]
	if leaves == nil {
		return nil, false
	}
	sv, ok := leaves[leaf][sid]
	return sv, ok
}

// sessionSlot is the shard and leaf a session id hashes to (FNV-1a,
// folded: session ids differ in their last bytes).
func sessionSlot(sid SessionID) (shard, leaf int) {
	h := uint32(2166136261)
	for i := 0; i < len(sid); i++ {
		h ^= uint32(sid[i])
		h *= 16777619
	}
	h ^= h >> 16
	return int(h & (viewFanout - 1)), int(h / viewFanout & (viewFanout - 1))
}

// sessionView is one session's projection: the owner, the owner's lock
// state, and the effective permission set of each active role. Written
// only by the accessView builders.
//
// rbacvet:snapshot
type sessionView struct {
	user   UserID
	locked bool
	perms  []map[Permission]struct{}
}

// SetChangeHook installs a callback run after every view publication:
// policy=true with an empty sid for policy-grade changes, policy=false
// with the touched session for session-grade changes. The hook runs
// under the store mutex and must not block or call back into the
// store; the decision fast path uses it for cache invalidation.
// Install once during engine assembly.
func (s *Store) SetChangeHook(fn func(policy bool, sid SessionID)) {
	s.mu.Lock()
	s.chook = fn
	s.mu.Unlock()
}

// Epoch reports the current policy epoch of the published view.
func (s *Store) Epoch() uint64 { return s.view.Load().epoch }

// publishPolicyLocked rebuilds the whole view — effective permissions
// and all session projections — and bumps the epoch. Caller holds s.mu
// (write side).
func (s *Store) publishPolicyLocked() {
	s.view.Store(s.projectLocked(s.view.Load().epoch + 1))
	if h := s.chook; h != nil {
		h(true, "")
	}
}

// projectLocked builds the view of the store's current state from
// scratch, shards and leaf maps allocated as sessions land in them.
// Caller holds s.mu.
func (s *Store) projectLocked(epoch uint64) *accessView {
	v := &accessView{
		epoch: epoch,
		perms: make(map[RoleID]map[Permission]struct{}, len(s.roles)),
	}
	for r := range s.roles {
		eff := make(map[Permission]struct{})
		for j := range s.juniorsClosureLocked(r) {
			for p := range s.roles[j].perms {
				eff[p] = struct{}{}
			}
		}
		v.perms[r] = eff
	}
	for sid := range s.sessions {
		shard, leaf := sessionSlot(sid)
		if v.sessions[shard] == nil {
			v.sessions[shard] = new(sessionLeaves)
		}
		leaves := v.sessions[shard]
		if leaves[leaf] == nil {
			leaves[leaf] = make(map[SessionID]*sessionView, 1)
		}
		leaves[leaf][sid] = s.sessionViewLocked(sid, v.perms)
	}
	return v
}

// publishSessionLocked republishes the view with only sid's projection
// rebuilt (or removed): fresh copies of the shard array, sid's shard and
// sid's leaf map beside everything else of the old view, epoch included.
// Caller holds s.mu (write side).
func (s *Store) publishSessionLocked(sid SessionID) {
	old := s.view.Load()
	v := &accessView{epoch: old.epoch, perms: old.perms, sessions: old.sessions}
	shard, leaf := sessionSlot(sid)
	leaves := new(sessionLeaves)
	if o := old.sessions[shard]; o != nil {
		*leaves = *o
	}
	m := maps.Clone(leaves[leaf])
	if _, live := s.sessions[sid]; !live {
		delete(m, sid)
	} else {
		if m == nil {
			m = make(map[SessionID]*sessionView, 1)
		}
		m[sid] = s.sessionViewLocked(sid, old.perms)
	}
	leaves[leaf] = m
	v.sessions[shard] = leaves
	s.view.Store(v)
	if h := s.chook; h != nil {
		h(false, sid)
	}
}

// sessionViewLocked projects one live session against the given
// effective-permission maps. Caller holds s.mu.
func (s *Store) sessionViewLocked(sid SessionID, perms map[RoleID]map[Permission]struct{}) *sessionView {
	sess := s.sessions[sid]
	sv := &sessionView{user: sess.user}
	if us, ok := s.users[sess.user]; ok {
		sv.locked = us.locked
	}
	if len(sess.active) > 0 {
		sv.perms = make([]map[Permission]struct{}, 0, len(sess.active))
		for r := range sess.active {
			if eff, ok := perms[r]; ok {
				sv.perms = append(sv.perms, eff)
			}
		}
	}
	return sv
}
