package activerbac

import (
	"fmt"

	"activerbac/internal/policy"
	"activerbac/internal/store"
)

// ---------------------------------------------------------------------------
// Replication: export-state-at-epoch and install-synced-state. These
// are the facade halves of internal/replicate — the leader exports, a
// replica installs — both speaking the same snapshot envelope the disk
// persistence uses (store.EncodeSnapshot), so a replica ends up in
// exactly the state a restart from SaveState would produce.

// exportRetries bounds the epoch-stability loop of ExportSyncSnapshot.
const exportRetries = 8

// ExportSyncSnapshot serializes the policy source plus the full
// compiled state (users, roles, sessions, SoD tallies, locks) behind
// the push epoch the bytes are valid at. The export races concurrent
// mutations, so it re-reads the push epoch after encoding and retries
// while the two disagree; if churn outlasts the retry budget it
// returns the epoch read *before* the snapshot. Under-claiming is
// safe: the replica records an older epoch than it may actually hold
// and simply resyncs once more on the next push it observes — a
// harmless extra transfer, never a missed one.
//
// Text and state are read under one srcMu read hold — the cut
// ApplyPolicy's write hold makes atomic. The field is read directly:
// calling PolicySource here would re-enter RLock, which deadlocks
// behind a waiting writer.
func (s *System) ExportSyncSnapshot() (epoch uint64, data []byte, err error) {
	for i := 0; i < exportRetries; i++ {
		before := s.PushEpoch()
		s.srcMu.RLock()
		encoded, eerr := store.EncodeSnapshot(s.source, s.gen.Engine().Store().Snapshot())
		s.srcMu.RUnlock()
		if eerr != nil {
			return 0, nil, eerr
		}
		if s.PushEpoch() == before || i == exportRetries-1 {
			return before, encoded, nil
		}
	}
	panic("unreachable")
}

// SyncSnapshotPolicy extracts the policy source from an encoded sync
// snapshot without installing anything — the hook rbacd uses to run a
// synced policy through its analyze/verify gates before the install.
func SyncSnapshotPolicy(data []byte) (string, error) {
	f, err := store.DecodeSnapshot(data)
	if err != nil {
		return "", err
	}
	return f.Policy, nil
}

// InstallSyncSnapshot installs an encoded sync snapshot over the live
// system: the policy is applied (regenerating exactly the affected
// rules), the state restored over it, and the invariants checked. The
// regeneration and the restore run in one policy transaction under one
// srcMu write hold, so the access view moves from the old state to the
// installed one in one publication instead of first showing the new
// policy over the old state (a shift role's schedule still sets the
// role's state through a direct store call, which publishes on its
// own). Callers must verify the transfer's content hash first — this
// method trusts its input to be a complete envelope. A decode or policy
// failure leaves the system untouched; a state-restore failure leaves a
// clean empty store (rbac.Store's restore contract), which the next
// successful sync repairs.
func (s *System) InstallSyncSnapshot(data []byte) error {
	f, err := store.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	spec, err := policy.ParseString(f.Policy)
	if err == nil {
		_, err = s.install(f.Policy, spec, &f.State)
	}
	if err != nil {
		return fmt.Errorf("sync install: %w", err)
	}
	return nil
}
