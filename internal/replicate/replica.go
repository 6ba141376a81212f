package replicate

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"activerbac/internal/wire"
)

// Applier installs one verified sync snapshot into the local system.
// rbacd's replica mode injects an applier that runs the synced policy
// through its analyze/verify gates before the facade install.
type Applier interface {
	Apply(data []byte) error
}

// ReplicaInstruments are optional replica-side metrics hooks; any
// field may be nil.
type ReplicaInstruments struct {
	// Sync is called once per snapshot applied.
	Sync func()
	// SyncBytes is called with the payload size of each applied
	// snapshot.
	SyncBytes func(n float64)
	// SyncSeconds observes each transfer+apply, in seconds.
	SyncSeconds func(seconds float64)
	// Lag sets the current epoch lag (leader push epoch seen minus
	// applied epoch) whenever either side moves.
	Lag func(lag float64)
}

// ReplicaOptions configures a Replica.
type ReplicaOptions struct {
	// Name identifies this replica to the leader's registry. Required.
	Name string
	// LeaderAddr is the leader's wire listener. Required.
	LeaderAddr string
	// Applier installs verified snapshots. Required.
	Applier Applier
	// MaxFrame bounds one received frame; a sync response carries a
	// whole snapshot, so the default is MaxSyncData plus header slack,
	// not wire.DefaultMaxFrame.
	MaxFrame int
	// Timeout bounds each round trip, transfers included. Default 60s.
	Timeout time.Duration
	// Instruments hooks replica metrics; nil disables.
	Instruments *ReplicaInstruments
	// Logf logs state transitions (connects, sync failures); nil
	// discards.
	Logf func(format string, args ...any)
}

// Replica reconnect/retry backoff bounds — deliberately coarser than
// the wire client's redial backoff underneath it, which already
// protects a restarting leader from a dial storm.
const (
	replicaRetryBase = 50 * time.Millisecond
	replicaRetryCap  = 2 * time.Second
)

// Replica is the replica-side sync state machine: subscribe to the
// leader's epoch pushes, pull a snapshot whenever the observed epoch
// runs ahead of the applied one, verify, install, report progress. It
// owns one background goroutine for its whole life. On any failure —
// leader down, subscription lost, transfer corrupt — it keeps the
// last-applied state serving and retries with backoff; the applied
// epoch only ever moves forward.
type Replica struct {
	opts   ReplicaOptions
	client *wire.Client

	applied     atomic.Uint64
	leaderEpoch atomic.Uint64
	synced      atomic.Bool
	subscribed  atomic.Bool
	connected   atomic.Bool
	syncs       atomic.Uint64
	// needSync forces a sync round even when the epoch comparison says
	// "current" — set when a resubscribe reveals a leader whose epoch
	// counter regressed (a restarted leader is a new incarnation whose
	// numbering shares nothing with the old one).
	needSync atomic.Bool

	kick      chan struct{}
	done      chan struct{}
	exited    chan struct{}
	closeOnce sync.Once
}

// StartReplica validates opts and starts the sync loop. It returns
// immediately — a leader that is down at start is a retry case, not a
// construction error (the replica is simply not Synced yet, which is
// what holds rbacd's /readyz down).
func StartReplica(opts ReplicaOptions) (*Replica, error) {
	if opts.Name == "" {
		return nil, errors.New("replicate: replica needs a name")
	}
	if opts.LeaderAddr == "" {
		return nil, errors.New("replicate: replica needs a leader address")
	}
	if opts.Applier == nil {
		return nil, errors.New("replicate: replica needs an applier")
	}
	if opts.MaxFrame <= 0 {
		opts.MaxFrame = wire.MaxSyncData + wire.SyncHashSize + wire.HeaderSize + 64
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	r := &Replica{
		opts:   opts,
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go r.run()
	return r, nil
}

// AppliedEpoch reports the leader push epoch of the last installed
// snapshot (0 before the first sync).
func (r *Replica) AppliedEpoch() uint64 { return r.applied.Load() }

// Lag reports the epoch distance between the observed leader epoch and
// the applied one.
func (r *Replica) Lag() uint64 {
	le, ap := r.leaderEpoch.Load(), r.applied.Load()
	if le <= ap {
		return 0
	}
	return le - ap
}

// Synced reports whether the first snapshot has been installed — the
// readiness gate.
func (r *Replica) Synced() bool { return r.synced.Load() }

// Connected reports whether the replica currently holds a live
// subscription to the leader. False means reads are serving the
// last-applied epoch with unbounded staleness.
func (r *Replica) Connected() bool { return r.connected.Load() }

// Syncs reports how many snapshots have been installed.
func (r *Replica) Syncs() uint64 { return r.syncs.Load() }

// Close stops the sync loop and closes the leader connection. The
// local system keeps whatever state was last applied.
func (r *Replica) Close() error {
	r.closeOnce.Do(func() { close(r.done) })
	<-r.exited
	if r.client != nil {
		r.client.Close()
	}
	return nil
}

func (r *Replica) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// wake nudges the run loop without ever blocking (one pending wake
// coalesces any burst).
func (r *Replica) wake() {
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// observeLeader records a leader epoch sighting, monotonically.
func (r *Replica) observeLeader(epoch uint64) {
	for {
		cur := r.leaderEpoch.Load()
		if epoch <= cur || r.leaderEpoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	r.reportLag()
}

func (r *Replica) reportLag() {
	if ins := r.opts.Instruments; ins != nil && ins.Lag != nil {
		ins.Lag(float64(r.Lag()))
	}
}

// sleep waits d or until Close; true means closed.
func (r *Replica) sleep(d time.Duration) bool {
	select {
	case <-r.done:
		return true
	case <-time.After(d):
		return false
	}
}

// run is the sync loop: (re)connect, (re)subscribe, sync to the
// observed epoch, then park until a push or a loss wakes it.
func (r *Replica) run() {
	defer close(r.exited)
	backoff := replicaRetryBase
	for {
		select {
		case <-r.done:
			return
		default:
		}
		if r.client == nil {
			c, err := wire.Dial(r.opts.LeaderAddr, &wire.ClientOptions{
				MaxFrame: r.opts.MaxFrame,
				Timeout:  r.opts.Timeout,
				OnEpochPush: func(epoch uint64) {
					// Read-goroutine callback: record and wake, never block.
					r.observeLeader(epoch)
					r.wake()
				},
				OnSubscriptionLost: func() {
					// Pushes may be missed from this instant: the observed
					// leader epoch can no longer be trusted as current, so
					// the loop must resubscribe (which re-reads it) before
					// trusting "no gap" again.
					r.subscribed.Store(false)
					r.connected.Store(false)
					r.wake()
				},
			})
			if err != nil {
				r.logf("replica %s: dial %s: %v", r.opts.Name, r.opts.LeaderAddr, err)
				if r.sleep(backoff) {
					return
				}
				backoff = growBackoff(backoff)
				continue
			}
			r.client = c
		}
		if !r.subscribed.Load() {
			epoch, err := r.client.Subscribe()
			if err != nil {
				r.connected.Store(false)
				r.logf("replica %s: subscribe: %v", r.opts.Name, err)
				if r.sleep(backoff) {
					return
				}
				backoff = growBackoff(backoff)
				continue
			}
			r.subscribed.Store(true)
			r.connected.Store(true)
			if r.synced.Load() && epoch < r.applied.Load() {
				// The leader's push epoch runs below what this replica has
				// applied: epochs are in-memory counters, so that means a
				// restarted leader with a reset counter — a new incarnation
				// whose numbering shares nothing with the old one. Reset
				// the observed epoch (non-monotonically) and force a full
				// resync. synced stays true: the old state keeps serving
				// (stale, not down) until the fresh snapshot lands.
				r.logf("replica %s: leader epoch %d below applied %d — leader restarted, forcing full resync",
					r.opts.Name, epoch, r.applied.Load())
				r.leaderEpoch.Store(epoch)
				r.needSync.Store(true)
				r.reportLag()
			} else {
				r.observeLeader(epoch)
			}
			r.logf("replica %s: subscribed to %s at epoch %d", r.opts.Name, r.opts.LeaderAddr, epoch)
		}
		if !r.synced.Load() || r.needSync.Load() || r.leaderEpoch.Load() > r.applied.Load() {
			if err := r.syncToCurrent(); err != nil {
				r.logf("replica %s: sync: %v", r.opts.Name, err)
				if r.sleep(backoff) {
					return
				}
				backoff = growBackoff(backoff)
				continue
			}
		}
		backoff = replicaRetryBase
		select {
		case <-r.kick:
		case <-r.done:
			return
		}
	}
}

func growBackoff(d time.Duration) time.Duration {
	if d *= 2; d > replicaRetryCap {
		return replicaRetryCap
	}
	return d
}

// syncToCurrent pulls snapshots until the leader acks that the applied
// epoch is current. Each request reports the applied epoch, so the
// final ack doubles as the progress report that settles the leader's
// registry row. When a resync was forced (leader restart), the first
// request claims epoch 0 so the new incarnation sends a full snapshot
// whatever its counter says.
func (r *Replica) syncToCurrent() error {
	for {
		start := time.Now()
		claim := r.applied.Load()
		if r.needSync.Load() {
			claim = 0
		}
		st, err := r.client.Sync(r.opts.Name, claim)
		if err != nil {
			return err
		}
		r.observeLeader(st.Epoch)
		if len(st.Data) == 0 {
			if st.Epoch > claim {
				return fmt.Errorf("leader acked epoch %d above applied %d with no data", st.Epoch, claim)
			}
			if r.needSync.Swap(false) {
				// Forced-resync ack at epoch 0: the new incarnation has
				// published nothing yet; adopt its numbering.
				r.applied.Store(st.Epoch)
			}
			return nil // up to date
		}
		if sum := sha256.Sum256(st.Data); sum != st.Hash {
			return fmt.Errorf("snapshot hash mismatch at epoch %d (%d bytes)", st.Epoch, len(st.Data))
		}
		if err := r.opts.Applier.Apply(st.Data); err != nil {
			return fmt.Errorf("apply epoch %d: %w", st.Epoch, err)
		}
		if prev := r.applied.Load(); st.Epoch < prev {
			r.logf("replica %s: applied epoch regressed %d -> %d (new leader incarnation)",
				r.opts.Name, prev, st.Epoch)
		}
		r.applied.Store(st.Epoch)
		r.needSync.Store(false)
		r.synced.Store(true)
		r.syncs.Add(1)
		r.reportLag()
		if ins := r.opts.Instruments; ins != nil {
			if ins.Sync != nil {
				ins.Sync()
			}
			if ins.SyncBytes != nil {
				ins.SyncBytes(float64(len(st.Data)))
			}
			if ins.SyncSeconds != nil {
				ins.SyncSeconds(time.Since(start).Seconds())
			}
		}
		r.logf("replica %s: applied epoch %d (%d bytes)", r.opts.Name, st.Epoch, len(st.Data))
	}
}
