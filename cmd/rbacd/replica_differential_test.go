package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activerbac"
	clientcache "activerbac/client"
	"activerbac/internal/replicate"
	"activerbac/internal/wire"
)

// replicaNode is one read replica assembled exactly the way rbacd's
// -mode=replica run() does: an empty-bootstrapped System, the server
// marked read-only, a sync loop installing through replicaApplier, and
// the node's own HTTP + wire listeners serving checks from the local
// snapshot.
type replicaNode struct {
	name     string
	sys      *activerbac.System
	srv      *server
	rep      *replicate.Replica
	httpSrv  *httptest.Server
	wc       *wire.Client
	wireAddr string
}

func startReplicaNode(t *testing.T, name, leaderAddr string, epoch time.Time) *replicaNode {
	t.Helper()
	sys, err := activerbac.Open("", &activerbac.Options{
		Clock: activerbac.NewSimClock(epoch),
	})
	if err != nil {
		t.Fatalf("%s: open: %v", name, err)
	}
	t.Cleanup(func() { sys.Close() })

	srv := &server{sys: sys, analyzeMode: "off", verifyMode: "off", replica: true}
	rep, err := replicate.StartReplica(replicate.ReplicaOptions{
		Name:       name,
		LeaderAddr: leaderAddr,
		Applier:    replicaApplier{srv},
	})
	if err != nil {
		t.Fatalf("%s: start replica: %v", name, err)
	}
	t.Cleanup(func() { rep.Close() })
	srv.rep = rep

	httpSrv := httptest.NewServer(srv.routes())
	t.Cleanup(httpSrv.Close)

	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("%s: wire listener: %v", name, err)
	}
	// A replica's wire backend is the plain one — SYNC is unsupported
	// here; only the leader serves snapshots. Local epoch bumps (each
	// installed snapshot is one) still push to subscribed client caches.
	wireSrv := wire.NewServer(wireBackend{srv}, nil)
	sys.OnEpochBump(wireSrv.NotifyEpoch)
	go wireSrv.Serve(wln)
	t.Cleanup(func() { wireSrv.Close() })

	wc, err := wire.Dial(wln.Addr().String(), &wire.ClientOptions{
		Conns: 2, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("%s: dial: %v", name, err)
	}
	t.Cleanup(func() { wc.Close() })

	return &replicaNode{name: name, sys: sys, srv: srv, rep: rep, httpSrv: httpSrv,
		wc: wc, wireAddr: wln.Addr().String()}
}

func (n *replicaNode) httpCheck(session, operation, object string) (bool, error) {
	u := n.httpSrv.URL + "/v1/check?" + url.Values{
		"session": {session}, "operation": {operation}, "object": {object},
	}.Encode()
	resp, err := http.Get(u)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var v struct {
		Allowed bool `json:"allowed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return false, err
	}
	return v.Allowed, nil
}

func (n *replicaNode) httpCheckBatch(checks []activerbac.BatchCheck) ([]bool, error) {
	body, err := json.Marshal(struct {
		Checks []activerbac.BatchCheck `json:"checks"`
	}{checks})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(n.httpSrv.URL+"/v1/check-batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v struct {
		Verdicts []bool `json:"verdicts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, err
	}
	return v.Verdicts, nil
}

// TestReplicaDifferential is the replication acceptance run: ONE leader
// system under the full churn battery (equivalent policy hot-reloads
// over HTTP, enable/disable flips of an unrelated role, simulated-clock
// swings of a GTRBAC shift window, per-worker session-grade mutations)
// streams its state to THREE replicas over real TCP SYNC, and every
// worker verdict must be unanimous across the leader's in-process path
// and every replica's HTTP, wire, wire-batch and embedded-client-cache
// paths.
//
// Convergence is bounded, not instantaneous: replication is
// asynchronous, so after a mutation that changes one of its OWN
// verdicts a worker fences — it captures the leader push epoch and
// waits until every replica's applied epoch reaches it (and the cached
// client's epoch view reaches the replica-local push epoch that
// install produced). Steady-state checks need no fence because the
// churn never changes a worker verdict and replica applied epochs only
// move forward past each worker's last fence. Run under -race this is
// the proof that a read fleet introduces no verdict skew: reads may be
// stale by in-flight epochs, but never wrong for longer than one
// bounded sync window.
func TestReplicaDifferential(t *testing.T) {
	epoch := time.Date(2026, 7, 6, 9, 30, 0, 0, time.UTC) // inside C0's shift
	sim := activerbac.NewSimClock(epoch)
	sys, err := activerbac.Open(wireStressPolicy("09:00:00"), &activerbac.Options{
		Clock: sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Leader: hub + SYNC-capable wire backend, exactly as run() builds it.
	srv := &server{sys: sys, analyzeMode: "off"}
	srv.hub = replicate.NewHub(sys, nil)
	httpSrv := httptest.NewServer(srv.routes())
	defer httpSrv.Close()

	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireSrv := wire.NewServer(leaderWireBackend{wireBackend{srv}, srv.hub}, nil)
	sys.OnEpochBump(wireSrv.NotifyEpoch)
	go wireSrv.Serve(wln)
	defer wireSrv.Close()
	leaderAddr := wln.Addr().String()

	nodes := []*replicaNode{
		startReplicaNode(t, "site-a", leaderAddr, epoch),
		startReplicaNode(t, "site-b", leaderAddr, epoch),
		startReplicaNode(t, "site-c", leaderAddr, epoch),
	}

	// The cached-client participant rides on site-a: repeat allows served
	// locally from the replica, retired by the replica's local epoch
	// pushes (each installed snapshot bumps one).
	cc, err := clientcache.New(nodes[0].wireAddr, &clientcache.Options{
		Conns: 2, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if !cc.Subscribed() {
		t.Fatal("client cache did not subscribe to replica")
	}

	// First convergence: all replicas must reach the leader's boot state
	// before any worker starts.
	awaitSynced := func() bool {
		target := sys.PushEpoch()
		deadline := time.Now().Add(30 * time.Second)
		for _, n := range nodes {
			for n.rep.AppliedEpoch() < target || !n.rep.Synced() {
				if time.Now().After(deadline) {
					t.Errorf("replica %s never reached leader epoch %d (applied %d, synced %v)",
						n.name, target, n.rep.AppliedEpoch(), n.rep.Synced())
					return false
				}
				time.Sleep(200 * time.Microsecond)
			}
		}
		return true
	}
	if !awaitSynced() {
		t.FailNow()
	}

	iters := 32
	if testing.Short() {
		iters = 12
	}

	var stop atomic.Bool
	var churn, workers sync.WaitGroup
	const churnPause = 2 * time.Millisecond

	// Churn 1: equivalent policy hot-reloads through the LEADER's HTTP
	// endpoint — every reload re-serializes a snapshot the fleet must
	// re-pull, so the sync path is continuously under full-transfer load,
	// not just session-delta acks.
	altA, altB := wireStressPolicy("09:00:00"), wireStressPolicy("08:30:00")
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			time.Sleep(churnPause)
			next := altA
			if i%2 == 0 {
				next = altB
			}
			resp, err := http.Post(httpSrv.URL+"/v1/policy", "text/plain", strings.NewReader(next))
			if err != nil {
				t.Errorf("policy reload: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("policy reload: status %d", resp.StatusCode)
				return
			}
		}
	}()

	// Churn 2: flip the unrelated role C1 on the leader.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			time.Sleep(churnPause)
			var err error
			if i%2 == 0 {
				err = sys.DisableRole("C1")
			} else {
				err = sys.EnableRole("C1")
			}
			if err != nil {
				t.Errorf("role flip: %v", err)
				return
			}
		}
	}()

	// Churn 3: swing C0's GTRBAC window via the leader's simulated clock.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for !stop.Load() {
			time.Sleep(churnPause)
			sim.Advance(4 * time.Hour)
		}
	}()

	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			user := activerbac.UserID(fmt.Sprintf("u%02d", w))
			role := activerbac.RoleID(fmt.Sprintf("W%d", w%8))
			ownOp, ownObj := fmt.Sprintf("op%d", w%8), fmt.Sprintf("obj%d", w%8)
			foreignOp, foreignObj := fmt.Sprintf("op%d", (w+1)%8), fmt.Sprintf("obj%d", (w+1)%8)

			// fence bounds the convergence window after one of this
			// worker's OWN mutations: every replica must apply a snapshot
			// at or past the leader epoch the mutation produced, and the
			// cached client must observe site-a's resulting local push.
			fence := func(what string) bool {
				target := sys.PushEpoch()
				deadline := time.Now().Add(30 * time.Second)
				for _, n := range nodes {
					for n.rep.AppliedEpoch() < target {
						if time.Now().After(deadline) {
							t.Errorf("worker %d: %s: replica %s stuck at epoch %d, leader at %d",
								w, what, n.name, n.rep.AppliedEpoch(), target)
							return false
						}
						time.Sleep(200 * time.Microsecond)
					}
				}
				ccTarget := nodes[0].sys.PushEpoch()
				for cc.Subscribed() && cc.Epoch() < ccTarget {
					if time.Now().After(deadline) {
						t.Errorf("worker %d: %s: cache epoch %d never caught up to replica push epoch %d",
							w, what, cc.Epoch(), ccTarget)
						return false
					}
					time.Sleep(200 * time.Microsecond)
				}
				return true
			}

			open := func() (activerbac.SessionID, bool) {
				sid, err := sys.CreateSession(user)
				if err != nil {
					t.Errorf("worker %d: CreateSession: %v", w, err)
					return "", false
				}
				if err := sys.AddActiveRole(user, sid, role); err != nil {
					t.Errorf("worker %d: AddActiveRole: %v", w, err)
					return "", false
				}
				return sid, fence("session opened")
			}

			// expect runs the same check on the leader and over every
			// replica's every path, and requires unanimity with the model.
			expect := func(sid activerbac.SessionID, op, obj string, want bool, what string) bool {
				leader := sys.CheckAccessTuple(string(sid), op, obj)
				if leader != want {
					t.Errorf("worker %d: %s: leader verdict %v, model says %v", w, what, leader, want)
					return false
				}
				for _, n := range nodes {
					overHTTP, err := n.httpCheck(string(sid), op, obj)
					if err != nil {
						t.Errorf("worker %d: %s: %s http: %v", w, what, n.name, err)
						return false
					}
					overWire, err := n.wc.Check(string(sid), op, obj)
					if err != nil {
						t.Errorf("worker %d: %s: %s wire: %v", w, what, n.name, err)
						return false
					}
					batch, err := n.wc.CheckMany([]wire.CheckRequest{
						{Session: string(sid), Operation: op, Object: obj},
					})
					if err != nil || len(batch) != 1 {
						t.Errorf("worker %d: %s: %s wire batch: %v (%d verdicts)", w, what, n.name, err, len(batch))
						return false
					}
					if overHTTP != want || overWire != want || batch[0] != want {
						t.Errorf("worker %d: %s: %s diverged from leader: http=%v wire=%v batch=%v leader=%v",
							w, what, n.name, overHTTP, overWire, batch[0], want)
						return false
					}
				}
				overCached, err := cc.Check(string(sid), op, obj)
				if err != nil {
					t.Errorf("worker %d: %s: cached client: %v", w, what, err)
					return false
				}
				if overCached != want {
					t.Errorf("worker %d: %s: cached client diverged: %v, leader %v", w, what, overCached, want)
					return false
				}
				return true
			}

			// expectBatch sends one mixed batch (duplicates included) to
			// every replica's HTTP and wire batch paths and requires
			// element-wise agreement with the leader's sequential verdicts.
			expectBatch := func(sid activerbac.SessionID, wantOwn bool, what string) bool {
				checks := []activerbac.BatchCheck{
					{Session: string(sid), Operation: ownOp, Object: ownObj},
					{Session: string(sid), Operation: foreignOp, Object: foreignObj},
					{Session: string(sid), Operation: ownOp, Object: ownObj}, // duplicate of [0]
					{Session: string(sid), Operation: ownOp, Object: ownObj},
				}
				want := []bool{wantOwn, false, wantOwn, wantOwn}
				for i, c := range checks {
					if got := sys.CheckAccessTuple(c.Session, c.Operation, c.Object); got != want[i] {
						t.Errorf("worker %d: %s: leader batch[%d] = %v, model says %v", w, what, i, got, want[i])
						return false
					}
				}
				reqs := make([]wire.CheckRequest, len(checks))
				for i, c := range checks {
					reqs[i] = wire.CheckRequest{Session: c.Session, Operation: c.Operation, Object: c.Object}
				}
				for _, n := range nodes {
					overHTTP, err := n.httpCheckBatch(checks)
					if err != nil {
						t.Errorf("worker %d: %s: %s http batch: %v", w, what, n.name, err)
						return false
					}
					overWire, err := n.wc.CheckMany(reqs)
					if err != nil {
						t.Errorf("worker %d: %s: %s wire batch: %v", w, what, n.name, err)
						return false
					}
					if len(overHTTP) != len(checks) || len(overWire) != len(checks) {
						t.Errorf("worker %d: %s: %s batch counts http=%d wire=%d, want %d",
							w, what, n.name, len(overHTTP), len(overWire), len(checks))
						return false
					}
					for i := range checks {
						if overHTTP[i] != want[i] || overWire[i] != want[i] {
							t.Errorf("worker %d: %s: %s batch[%d] diverged: http=%v wire=%v want=%v",
								w, what, n.name, i, overHTTP[i], overWire[i], want[i])
							return false
						}
					}
				}
				return true
			}

			sid, ok := open()
			if !ok {
				return
			}
			for i := 0; i < iters; i++ {
				if !expect(sid, ownOp, ownObj, true, "own permission, role active") ||
					!expect(sid, foreignOp, foreignObj, false, "foreign permission") {
					return
				}
				if i%4 == 1 {
					if !expectBatch(sid, true, "batch, role active") {
						return
					}
				}
				if i%8 == 7 {
					// Flip the worker's own role on the leader: within one
					// fenced sync window every replica path must see the
					// deny, not a stale replicated ALLOW.
					if err := sys.DropActiveRole(user, sid, role); err != nil {
						t.Errorf("worker %d: DropActiveRole: %v", w, err)
						return
					}
					if !fence("role dropped") {
						return
					}
					if !expect(sid, ownOp, ownObj, false, "own permission, role dropped") ||
						!expectBatch(sid, false, "batch, role dropped") {
						return
					}
					if err := sys.AddActiveRole(user, sid, role); err != nil {
						t.Errorf("worker %d: AddActiveRole: %v", w, err)
						return
					}
					if !fence("role restored") {
						return
					}
				}
				if i%16 == 15 {
					if err := sys.DeleteSession(sid); err != nil {
						t.Errorf("worker %d: DeleteSession: %v", w, err)
						return
					}
					if !fence("session deleted") {
						return
					}
					if !expect(sid, ownOp, ownObj, false, "own permission, session deleted") {
						return
					}
					if sid, ok = open(); !ok {
						return
					}
				}
			}
		}(w)
	}

	workers.Wait()
	stop.Store(true)
	churn.Wait()

	// Final convergence + fleet health: the registry the leader serves at
	// GET /v1/replication must list all three replicas connected with
	// zero lag once the churn quiesces.
	if !awaitSynced() {
		t.FailNow()
	}
	resp, err := http.Get(httpSrv.URL + "/v1/replication")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reg struct {
		Epoch    uint64                    `json:"epoch"`
		Replicas []replicate.ReplicaStatus `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if len(reg.Replicas) != 3 {
		t.Fatalf("registry lists %d replicas, want 3: %+v", len(reg.Replicas), reg.Replicas)
	}
	for _, rs := range reg.Replicas {
		if !rs.Connected {
			t.Errorf("replica %s marked disconnected in registry", rs.Name)
		}
	}
	for _, n := range nodes {
		if !n.rep.Synced() || !n.rep.Connected() {
			t.Errorf("replica %s ended synced=%v connected=%v", n.name, n.rep.Synced(), n.rep.Connected())
		}
		if n.rep.Syncs() < 10 {
			t.Errorf("replica %s applied only %d snapshots across the churn run", n.name, n.rep.Syncs())
		}
		// POLICY_VERSION on a replica advertises the applied LEADER epoch
		// — the number a fleet operator compares across sites.
		v, err := n.wc.PolicyVersion()
		if err != nil {
			t.Errorf("replica %s: PolicyVersion: %v", n.name, err)
		} else if v != n.rep.AppliedEpoch() {
			t.Errorf("replica %s: POLICY_VERSION %d, applied epoch %d", n.name, v, n.rep.AppliedEpoch())
		}
	}
	// Quiescent cached-client epilogue: with the churn (and therefore the
	// replica's install stream) stopped, the local serving path is
	// deterministic — a repeat allow must be served from the embedded
	// cache, and a role drop must retire it through the replica's local
	// push before the next check.
	sid, err := sys.CreateSession("u00")
	if err != nil {
		t.Fatalf("cache epilogue: CreateSession: %v", err)
	}
	if err := sys.AddActiveRole("u00", sid, "W0"); err != nil {
		t.Fatalf("cache epilogue: AddActiveRole: %v", err)
	}
	awaitCache := func(what string) {
		t.Helper()
		if !awaitSynced() {
			t.FailNow()
		}
		ccTarget := nodes[0].sys.PushEpoch()
		deadline := time.Now().Add(30 * time.Second)
		for cc.Subscribed() && cc.Epoch() < ccTarget {
			if time.Now().After(deadline) {
				t.Fatalf("cache epilogue: %s: cache epoch %d never caught up to %d", what, cc.Epoch(), ccTarget)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	awaitCache("after session setup")
	before := cc.Stats()
	for i := 0; i < 2; i++ {
		allowed, err := cc.Check(string(sid), "op0", "obj0")
		if err != nil || !allowed {
			t.Fatalf("cache epilogue: check %d = (%v, %v), want (true, nil)", i, allowed, err)
		}
	}
	if after := cc.Stats(); after.Hits == before.Hits {
		t.Error("cache epilogue: repeat allow was not served locally by the replica-attached cache")
	}
	if err := sys.DropActiveRole("u00", sid, "W0"); err != nil {
		t.Fatalf("cache epilogue: DropActiveRole: %v", err)
	}
	awaitCache("after role drop")
	if cached, err := cc.Check(string(sid), "op0", "obj0"); err != nil || cached {
		t.Errorf("cache epilogue: verdict after role drop = (%v, %v), want (false, nil) — stale replicated allow served", cached, err)
	}

	if st := cc.Stats(); st.Invalidations == 0 {
		t.Errorf("cached client on replica observed no invalidations across the churn run")
	} else {
		t.Logf("cached client on replica: hits=%d misses=%d invalidations=%d", st.Hits, st.Misses, st.Invalidations)
	}
}

// TestReplicaReadOnlyAndReadiness covers the replica server's guard
// rails without a live leader: every mutating endpoint answers 403,
// /readyz stays 503 until the first sync lands, and /v1/replication is
// a leader-only endpoint.
func TestReplicaReadOnlyAndReadiness(t *testing.T) {
	sys, err := activerbac.Open("", &activerbac.Options{
		Clock: activerbac.NewSimClock(time.Date(2026, 7, 6, 9, 30, 0, 0, time.UTC)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// A leader address nothing listens on: grab a port and release it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	srv := &server{sys: sys, analyzeMode: "off", replica: true}
	rep, err := replicate.StartReplica(replicate.ReplicaOptions{
		Name: "orphan", LeaderAddr: deadAddr, Applier: replicaApplier{srv},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	srv.rep = rep

	httpSrv := httptest.NewServer(srv.routes())
	defer httpSrv.Close()

	resp, err := http.Get(httpSrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz before first sync: %d, want 503", resp.StatusCode)
	}

	for _, ep := range []string{
		"/v1/sessions", "/v1/activate", "/v1/assign", "/v1/users",
		"/v1/roles/enable", "/v1/context", "/v1/policy",
	} {
		resp, err := http.Post(httpSrv.URL+ep, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("POST %s: %v", ep, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("POST %s on replica: %d, want 403", ep, resp.StatusCode)
		}
	}

	resp, err = http.Get(httpSrv.URL + "/v1/replication")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/replication on replica: %d, want 404", resp.StatusCode)
	}
}
