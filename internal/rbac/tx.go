package rbac

// Policy transactions. Every policy-grade mutation runs inside a Tx, and
// the Tx's commit publishes the access view once: one projection of the
// whole store, one epoch bump, one change-hook call. A policy load or
// reload that makes hundreds of store edits therefore pays for one
// projection instead of one per edit.
//
// Each Tx call takes s.mu for itself only; the mutex is never held
// between calls. Policy regeneration calls out of this package between
// edits (a shift schedule enables its role through the public
// SetRoleEnabled and raises an event whose cascade reads and writes the
// store), and a writer lock held across the transaction would deadlock
// there. Such direct calls are one-operation transactions of their own
// and publish on return, as every public mutator does, so their
// publication can expose part of an open transaction's edits.
//
// Session-grade mutations are not transactional: they publish at once
// against the committed effective-permission maps, and the commit
// re-projects every session.

// Tx is an open policy transaction: the policy-grade mutators of Store,
// applied in call order and published together when Update returns. A
// Tx is valid only inside its Update callback.
type Tx struct {
	s *Store
	// dirty records that some call changed the store since the last
	// publication.
	dirty bool
	// auto marks the one-operation transaction behind each public
	// mutator: it commits inside the operation's own lock hold, so a
	// direct store call costs the one lock and no allocation.
	auto bool
}

// Update runs fn in one policy transaction and publishes the resulting
// view once, after fn returns, if any call changed the store — on
// error as well as on success. There is no rollback: edits fn made
// before failing stay applied and published.
func (s *Store) Update(fn func(*Tx) error) error {
	tx := &Tx{s: s}
	defer func() {
		if tx.dirty {
			s.mu.Lock()
			s.commitLocked()
			s.mu.Unlock()
		}
	}()
	return fn(tx)
}

// autoTx returns the one-operation transaction a public mutator runs.
func (s *Store) autoTx() *Tx { return &Tx{s: s, auto: true} }

// lock takes s.mu for one Tx call.
func (tx *Tx) lock() *Store {
	tx.s.mu.Lock()
	return tx.s
}

// unlock ends one Tx call, committing first when the transaction is a
// one-operation one.
func (tx *Tx) unlock() {
	if tx.auto && tx.dirty {
		tx.s.commitLocked()
		tx.dirty = false
	}
	tx.s.mu.Unlock()
}

// commitLocked publishes a policy transaction: it rebuilds the whole
// view — effective permissions and every session projection — bumps the
// epoch and runs the change hook once. It is the only publisher of a
// policy-grade view. Caller holds s.mu (write side).
func (s *Store) commitLocked() {
	s.view.Store(s.projectLocked(s.view.Load().epoch + 1))
	if h := s.chook; h != nil {
		h(true, "")
	}
}

// UserExists is Store.UserExists; it sees the transaction's own edits.
func (tx *Tx) UserExists(u UserID) bool { return tx.s.UserExists(u) }
