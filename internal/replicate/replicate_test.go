package replicate

import (
	"crypto/sha256"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activerbac/internal/wire"
)

// fakeExporter is a controllable leader facade: one payload per epoch.
type fakeExporter struct {
	mu      sync.Mutex
	epoch   uint64
	data    []byte
	exports int
}

func (f *fakeExporter) set(epoch uint64, data []byte) {
	f.mu.Lock()
	f.epoch, f.data = epoch, data
	f.mu.Unlock()
}

func (f *fakeExporter) ExportSyncSnapshot() (uint64, []byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.exports++
	return f.epoch, append([]byte(nil), f.data...), nil
}

func (f *fakeExporter) PushEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

func (f *fakeExporter) exportCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.exports
}

// hubBackend is the minimal leader-side wire backend: checks always
// deny (unused), sync goes to the hub.
type hubBackend struct {
	exp *fakeExporter
	hub *Hub

	// corruptHash, when set, flips a hash byte on every sync response —
	// the transfer-corruption fault injection.
	corruptHash atomic.Bool
	// truncate, when set, drops the payload's last byte after hashing —
	// a mid-transfer loss the hash check must catch.
	truncate atomic.Bool
}

func (b *hubBackend) PolicyEpoch() uint64                        { return b.exp.PushEpoch() }
func (b *hubBackend) PushEpoch() uint64                          { return b.exp.PushEpoch() }
func (b *hubBackend) CheckCacheable(_, _, _ string) (bool, bool) { return false, false }
func (b *hubBackend) CheckHit(*wire.CheckRequest) bool           { return false }
func (b *hubBackend) CheckBatch(reqs []wire.CheckRequest, vs []bool) []bool {
	for range reqs {
		vs = append(vs, false)
	}
	return vs
}
func (b *hubBackend) SyncSnapshot(replica string, applied uint64) (wire.SyncState, error) {
	st, err := b.hub.SyncSnapshot(replica, applied)
	if err != nil || len(st.Data) == 0 {
		return st, err
	}
	if b.corruptHash.Load() {
		st.Hash[0] ^= 0xFF
	}
	if b.truncate.Load() {
		st.Data = st.Data[:len(st.Data)-1]
	}
	return st, err
}
func (b *hubBackend) ReplicaDisconnected(replica string) { b.hub.ReplicaDisconnected(replica) }

// recordApplier stores every installed payload.
type recordApplier struct {
	mu      sync.Mutex
	applies [][]byte
}

func (a *recordApplier) Apply(data []byte) error {
	a.mu.Lock()
	a.applies = append(a.applies, append([]byte(nil), data...))
	a.mu.Unlock()
	return nil
}

func (a *recordApplier) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.applies)
}

func (a *recordApplier) last() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.applies) == 0 {
		return nil
	}
	return a.applies[len(a.applies)-1]
}

// startLeader serves a hub over a loopback listener; the returned stop
// function closes the server but keeps the address for a restart.
func startLeader(t *testing.T, b *hubBackend) (addr string, srv *wire.Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv = wire.NewServer(b, nil)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func startTestReplica(t *testing.T, name, addr string, ap Applier) *Replica {
	t.Helper()
	rep, err := StartReplica(ReplicaOptions{
		Name: name, LeaderAddr: addr, Applier: ap, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("StartReplica: %v", err)
	}
	t.Cleanup(func() { rep.Close() })
	return rep
}

func TestReplicaSyncAndEpochGapResync(t *testing.T) {
	exp := &fakeExporter{}
	exp.set(5, []byte("state-at-5"))
	b := &hubBackend{exp: exp, hub: NewHub(exp, nil)}
	addr, srv := startLeader(t, b)

	ap := &recordApplier{}
	rep := startTestReplica(t, "site-a", addr, ap)

	waitFor(t, "first sync", func() bool { return rep.Synced() && rep.AppliedEpoch() == 5 })
	if got := string(ap.last()); got != "state-at-5" {
		t.Fatalf("applied %q, want state-at-5", got)
	}
	if rep.Lag() != 0 || !rep.Connected() {
		t.Fatalf("lag=%d connected=%v after sync", rep.Lag(), rep.Connected())
	}

	// An epoch push announcing a gap triggers exactly one resync.
	exp.set(9, []byte("state-at-9"))
	srv.NotifyEpoch(9)
	waitFor(t, "gap resync", func() bool { return rep.AppliedEpoch() == 9 })
	if got := string(ap.last()); got != "state-at-9" {
		t.Fatalf("applied %q, want state-at-9", got)
	}

	// The leader registry settled on the acked epoch.
	waitFor(t, "registry settle", func() bool {
		sts := b.hub.Status()
		return len(sts) == 1 && sts[0].Name == "site-a" &&
			sts[0].AppliedEpoch == 9 && sts[0].Lag == 0 && sts[0].Connected
	})
}

func TestHubCachesOneEncodePerEpoch(t *testing.T) {
	exp := &fakeExporter{}
	exp.set(3, []byte("shared"))
	b := &hubBackend{exp: exp, hub: NewHub(exp, nil)}
	addr, _ := startLeader(t, b)

	apA, apB := &recordApplier{}, &recordApplier{}
	repA := startTestReplica(t, "site-a", addr, apA)
	repB := startTestReplica(t, "site-b", addr, apB)
	waitFor(t, "both synced", func() bool {
		return repA.AppliedEpoch() == 3 && repB.AppliedEpoch() == 3
	})
	if n := exp.exportCount(); n != 1 {
		t.Fatalf("exports = %d, want 1 (per-epoch cache)", n)
	}
	if len(b.hub.Status()) != 2 {
		t.Fatalf("registry rows = %d, want 2", len(b.hub.Status()))
	}
}

func TestReplicaRejectsCorruptTransfer(t *testing.T) {
	exp := &fakeExporter{}
	exp.set(4, []byte("good-state"))
	b := &hubBackend{exp: exp, hub: NewHub(exp, nil)}
	b.corruptHash.Store(true)
	addr, _ := startLeader(t, b)

	ap := &recordApplier{}
	rep := startTestReplica(t, "site-a", addr, ap)

	// Corrupted transfers never install: the replica stays unsynced and
	// keeps retrying with backoff.
	time.Sleep(150 * time.Millisecond)
	if rep.Synced() || ap.count() != 0 {
		t.Fatalf("corrupt transfer installed: synced=%v applies=%d", rep.Synced(), ap.count())
	}

	// The moment transfers are whole again, the retry loop converges.
	b.corruptHash.Store(false)
	waitFor(t, "recovery after corruption", func() bool { return rep.AppliedEpoch() == 4 })
	if got := string(ap.last()); got != "good-state" {
		t.Fatalf("applied %q after recovery", got)
	}
}

func TestReplicaRejectsTruncatedTransfer(t *testing.T) {
	// A transfer cut mid-stream hashes wrong — the partial state is
	// structurally un-appliable, which is the crash-mid-sync guarantee.
	exp := &fakeExporter{}
	exp.set(4, []byte("whole-state"))
	b := &hubBackend{exp: exp, hub: NewHub(exp, nil)}
	b.truncate.Store(true)
	addr, _ := startLeader(t, b)

	ap := &recordApplier{}
	rep := startTestReplica(t, "site-a", addr, ap)
	time.Sleep(150 * time.Millisecond)
	if rep.Synced() || ap.count() != 0 {
		t.Fatalf("truncated transfer installed: synced=%v applies=%d", rep.Synced(), ap.count())
	}
	b.truncate.Store(false)
	waitFor(t, "recovery after truncation", func() bool { return rep.AppliedEpoch() == 4 })
}

func TestReplicaCrashRestartMidSync(t *testing.T) {
	// A replica process dying mid-sync loses only its in-memory state:
	// the restarted replica claims epoch 0, pulls a full snapshot, and
	// re-converges from scratch.
	exp := &fakeExporter{}
	exp.set(6, []byte("state-at-6"))
	b := &hubBackend{exp: exp, hub: NewHub(exp, nil)}
	b.truncate.Store(true) // first incarnation only ever sees broken transfers
	addr, _ := startLeader(t, b)

	ap1 := &recordApplier{}
	rep1 := startTestReplica(t, "site-a", addr, ap1)
	time.Sleep(100 * time.Millisecond)
	rep1.Close() // crash mid-sync: nothing was ever applied
	if ap1.count() != 0 {
		t.Fatalf("partial sync applied %d snapshots", ap1.count())
	}

	b.truncate.Store(false)
	ap2 := &recordApplier{}
	rep2 := startTestReplica(t, "site-a", addr, ap2)
	waitFor(t, "restart convergence", func() bool { return rep2.AppliedEpoch() == 6 })
	if got := string(ap2.last()); got != "state-at-6" {
		t.Fatalf("applied %q after restart", got)
	}
}

func TestReplicaServesThroughLeaderLoss(t *testing.T) {
	exp := &fakeExporter{}
	exp.set(5, []byte("state-at-5"))
	b := &hubBackend{exp: exp, hub: NewHub(exp, nil)}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	srv := wire.NewServer(b, nil)
	go func() { _ = srv.Serve(ln) }()

	ap := &recordApplier{}
	rep := startTestReplica(t, "site-a", addr, ap)
	waitFor(t, "first sync", func() bool { return rep.AppliedEpoch() == 5 })

	// Leader dies: the replica stays synced (stale, never down) and
	// reports the lost subscription.
	srv.Close()
	waitFor(t, "loss detection", func() bool { return !rep.Connected() })
	if !rep.Synced() || rep.AppliedEpoch() != 5 {
		t.Fatalf("replica dropped state on leader loss: synced=%v applied=%d",
			rep.Synced(), rep.AppliedEpoch())
	}

	// Same incarnation comes back (epoch moved forward): plain resync.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	exp.set(8, []byte("state-at-8"))
	srv2 := wire.NewServer(b, nil)
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { srv2.Close() })

	waitFor(t, "reconnect resync", func() bool { return rep.AppliedEpoch() == 8 })
	if !rep.Connected() {
		t.Fatal("replica not reconnected")
	}
}

func TestReplicaAdoptsRestartedLeaderNumbering(t *testing.T) {
	exp := &fakeExporter{}
	exp.set(50, []byte("old-incarnation"))
	b := &hubBackend{exp: exp, hub: NewHub(exp, nil)}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	srv := wire.NewServer(b, nil)
	go func() { _ = srv.Serve(ln) }()

	ap := &recordApplier{}
	rep := startTestReplica(t, "site-a", addr, ap)
	waitFor(t, "first sync", func() bool { return rep.AppliedEpoch() == 50 })

	// The leader restarts as a new incarnation whose epoch counter is
	// far below what this replica applied. The replica must detect the
	// regression on resubscribe, force a full resync, and adopt the new
	// numbering — while serving the old state the whole time.
	srv.Close()
	waitFor(t, "loss detection", func() bool { return !rep.Connected() })

	exp2 := &fakeExporter{}
	exp2.set(2, []byte("new-incarnation"))
	b2 := &hubBackend{exp: exp2, hub: NewHub(exp2, nil)}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2 := wire.NewServer(b2, nil)
	go func() { _ = srv2.Serve(ln2) }()
	t.Cleanup(func() { srv2.Close() })

	waitFor(t, "new incarnation adopted", func() bool {
		return rep.AppliedEpoch() == 2 && string(ap.last()) == "new-incarnation"
	})
	if !rep.Synced() {
		t.Fatal("synced flag dropped across leader restart")
	}
}

func TestHubAckDoublesAsProgressReport(t *testing.T) {
	exp := &fakeExporter{}
	exp.set(7, []byte("state"))
	hub := NewHub(exp, nil)

	// Behind: full transfer, hash matches content.
	st, err := hub.SyncSnapshot("site-a", 2)
	if err != nil || st.Epoch != 7 || len(st.Data) == 0 {
		t.Fatalf("SyncSnapshot behind = (%+v, %v)", st, err)
	}
	if sha256.Sum256(st.Data) != st.Hash {
		t.Fatal("hub hash does not match payload")
	}

	// Current: empty ack, registry row updated to the reported epoch.
	ack, err := hub.SyncSnapshot("site-a", 7)
	if err != nil || ack.Epoch != 7 || len(ack.Data) != 0 {
		t.Fatalf("SyncSnapshot current = (%+v, %v)", ack, err)
	}
	sts := hub.Status()
	if len(sts) != 1 || sts[0].AppliedEpoch != 7 || sts[0].Lag != 0 || !sts[0].Connected {
		t.Fatalf("Status after ack = %+v", sts)
	}

	hub.ReplicaDisconnected("site-a")
	if sts := hub.Status(); sts[0].Connected {
		t.Fatal("registry row still connected after disconnect")
	}

	// Status sorts by name.
	if _, err := hub.SyncSnapshot("site-b", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.SyncSnapshot("aaa", 7); err != nil {
		t.Fatal(err)
	}
	sts = hub.Status()
	if len(sts) != 3 || sts[0].Name != "aaa" || sts[1].Name != "site-a" || sts[2].Name != "site-b" {
		t.Fatalf("Status order = %+v", sts)
	}
}

func TestStartReplicaValidation(t *testing.T) {
	ap := &recordApplier{}
	for _, opts := range []ReplicaOptions{
		{LeaderAddr: "x", Applier: ap},
		{Name: "r", Applier: ap},
		{Name: "r", LeaderAddr: "x"},
	} {
		if _, err := StartReplica(opts); err == nil {
			t.Fatalf("StartReplica(%+v) accepted", opts)
		}
	}
}

func TestReplicaStartsBeforeLeader(t *testing.T) {
	// A leader that is down at replica start is a retry case: the
	// replica is simply not synced until the leader appears.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ap := &recordApplier{}
	rep := startTestReplica(t, "site-a", addr, ap)
	time.Sleep(80 * time.Millisecond)
	if rep.Synced() {
		t.Fatal("synced with no leader")
	}

	exp := &fakeExporter{}
	exp.set(3, []byte("late-leader"))
	b := &hubBackend{exp: exp, hub: NewHub(exp, nil)}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv := wire.NewServer(b, nil)
	go func() { _ = srv.Serve(ln2) }()
	t.Cleanup(func() { srv.Close() })
	waitFor(t, "late leader sync", func() bool { return rep.AppliedEpoch() == 3 })
}
