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
	"activerbac/internal/wire"
)

// wireStressPolicy is the partitioned differential policy: eight flat
// worker roles with one permission each and 16 users spread across
// them, plus two churn roles the mutators flip without ever changing a
// worker verdict (C0 carries a GTRBAC shift window, C1 is flipped
// directly).
func wireStressPolicy(windowStart string) string {
	var b strings.Builder
	for r := 0; r < 8; r++ {
		fmt.Fprintf(&b, "role W%d\n", r)
		fmt.Fprintf(&b, "permission W%d: op%d obj%d\n", r, r, r)
	}
	b.WriteString("role C0\nrole C1\n")
	fmt.Fprintf(&b, "shift C0 %s-17:00:00\n", windowStart)
	for u := 0; u < 16; u++ {
		fmt.Fprintf(&b, "user u%02d: W%d\n", u, u%8)
	}
	return b.String()
}

// TestWireDifferential serves ONE live system over three enforcement
// paths at once — in-process CheckAccessTuple, rbacd's HTTP GET
// /v1/check, and the binary wire protocol (single CHECK frames and
// CHECK_BATCH) — and asserts after every check that all paths return
// the same verdict and that the verdict matches the worker's model,
// plus a periodic batch differential: one mixed batch (duplicates
// included) through the sequential per-tuple path, in-process
// CheckAccessBatch, HTTP POST /v1/check-batch, and the batch-native
// CHECK_BATCH wire path, all required to agree element-wise in input
// order, and a participant sending 256-tuple frames that span 64
// sessions over the same three batch paths,
// while churn goroutines hammer the invalidation machinery: equivalent
// policy hot-reloads through POST /v1/policy (exercising the server's
// swap lock against concurrent checks on every path), enable/disable
// flips of an unrelated role, and simulated-clock advances that swing a
// GTRBAC shift window. Run under -race this is the proof that the wire
// transport introduces no verdict skew and no memory unsafety.
//
// State is partitioned for determinism exactly like the fast-path
// stress test: each worker owns its user and session and only asserts
// about them; the churn touches nothing a worker verdict depends on.
func TestWireDifferential(t *testing.T) {
	epoch := time.Date(2026, 7, 6, 9, 30, 0, 0, time.UTC) // inside C0's shift
	sim := activerbac.NewSimClock(epoch)
	sys, err := activerbac.Open(wireStressPolicy("09:00:00"), &activerbac.Options{
		Clock: sim,
		// Sampled tracing at a vanishing rate: the trace machinery is live
		// (client-forced traces work, and the end-of-run traced
		// differential below needs it) but unsampled checks keep hitting
		// the verdict cache, so the fast-path assertions at the bottom
		// still hold.
		TraceBuffer: 256,
		TraceSample: 1e-9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	srv := &server{sys: sys, analyzeMode: "off"}
	httpSrv := httptest.NewServer(srv.routes())
	defer httpSrv.Close()

	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireSrv := wire.NewServer(wireBackend{srv}, nil)
	sys.OnEpochBump(wireSrv.NotifyEpoch)
	go wireSrv.Serve(wln)
	defer wireSrv.Close()
	wc, err := wire.Dial(wln.Addr().String(), &wire.ClientOptions{
		Conns: 4, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	// The cached-client participant: one embedded decision cache shared
	// by all workers, subscribed to epoch pushes, serving repeat allows
	// locally. Every expect() below runs it alongside the remote paths,
	// so a single stale locally-served allow is a unanimity failure.
	cc, err := clientcache.New(wln.Addr().String(), &clientcache.Options{
		Conns: 2, Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if !cc.Subscribed() {
		t.Fatal("client cache did not subscribe")
	}

	httpCheck := func(session, operation, object string) (bool, error) {
		u := httpSrv.URL + "/v1/check?" + url.Values{
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

	httpCheckBatch := func(checks []activerbac.BatchCheck) ([]bool, error) {
		body, err := json.Marshal(struct {
			Checks []activerbac.BatchCheck `json:"checks"`
		}{checks})
		if err != nil {
			return nil, err
		}
		resp, err := http.Post(httpSrv.URL+"/v1/check-batch", "application/json", strings.NewReader(string(body)))
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

	iters := 60
	if testing.Short() {
		iters = 20
	}

	var stop atomic.Bool
	var churn, workers sync.WaitGroup

	// Churn is throttled: each mutation runs on the drain or bumps epochs,
	// and worker checks pay a network round trip per path, so unthrottled
	// mutator spins would starve the workers into a minutes-long run
	// without exercising anything extra. A pause of a few check RTTs
	// still interleaves invalidations into every worker's stream.
	const churnPause = 2 * time.Millisecond

	// Churn 1: equivalent policy hot-reloads over HTTP — only the churn
	// role's shift window differs, so worker verdicts never change, but
	// every reload takes the server's swap lock, regenerates the pool
	// and bumps the fast-path epoch under the checks' feet.
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

	// Churn 2: flip the unrelated role C1 in-process.
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

	// Churn 3: swing C0's GTRBAC window via the simulated clock.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for !stop.Load() {
			time.Sleep(churnPause)
			sim.Advance(4 * time.Hour)
		}
	}()

	for w := 0; w < 16; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			user := activerbac.UserID(fmt.Sprintf("u%02d", w))
			role := activerbac.RoleID(fmt.Sprintf("W%d", w%8))
			ownOp, ownObj := fmt.Sprintf("op%d", w%8), fmt.Sprintf("obj%d", w%8)
			foreignOp, foreignObj := fmt.Sprintf("op%d", (w+1)%8), fmt.Sprintf("obj%d", (w+1)%8)

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
				return sid, true
			}
			// awaitPush fences the cached client after a mutation that
			// flips one of this worker's own verdicts: push delivery is
			// asynchronous, so the worker waits until the cache's epoch
			// view has caught up with a push epoch captured AFTER the
			// mutation. Once it has, every allow cached before the
			// mutation carries an older tag and cannot be served — this
			// is exactly the "every push drops the cache before the next
			// divergent verdict" guarantee under test. (Steady-state
			// checks need no fence: churn never changes worker verdicts,
			// so a cached worker allow stays correct until the worker
			// itself mutates.)
			awaitPush := func(what string) bool {
				target := sys.PushEpoch()
				deadline := time.Now().Add(30 * time.Second)
				for cc.Subscribed() && cc.Epoch() < target {
					if time.Now().After(deadline) {
						t.Errorf("worker %d: %s: cache epoch %d never caught up to push epoch %d",
							w, what, cc.Epoch(), target)
						return false
					}
					time.Sleep(100 * time.Microsecond)
				}
				return true
			}

			// expect runs the same check over every path and requires
			// unanimity with the model.
			expect := func(sid activerbac.SessionID, op, obj string, want bool, what string) bool {
				inProc := sys.CheckAccessTuple(string(sid), op, obj)
				overHTTP, err := httpCheck(string(sid), op, obj)
				if err != nil {
					t.Errorf("worker %d: %s: http: %v", w, what, err)
					return false
				}
				overWire, err := wc.Check(string(sid), op, obj)
				if err != nil {
					t.Errorf("worker %d: %s: wire: %v", w, what, err)
					return false
				}
				batch, err := wc.CheckMany([]wire.CheckRequest{
					{Session: string(sid), Operation: op, Object: obj},
				})
				if err != nil || len(batch) != 1 {
					t.Errorf("worker %d: %s: wire batch: %v (%d verdicts)", w, what, err, len(batch))
					return false
				}
				overCached, err := cc.Check(string(sid), op, obj)
				if err != nil {
					t.Errorf("worker %d: %s: cached client: %v", w, what, err)
					return false
				}
				if inProc != overHTTP || inProc != overWire || inProc != batch[0] || inProc != overCached {
					t.Errorf("worker %d: %s: verdicts diverged: in-process=%v http=%v wire=%v wire-batch=%v cached=%v",
						w, what, inProc, overHTTP, overWire, batch[0], overCached)
					return false
				}
				if inProc != want {
					t.Errorf("worker %d: %s: verdict %v, model says %v", w, what, inProc, want)
					return false
				}
				return true
			}

			// expectBatch sends one mixed batch — own/foreign checks with
			// duplicates — over the in-process batch path, HTTP
			// /v1/check-batch, and the wire CHECK_BATCH (batch-native
			// backend), and requires every element to agree with the
			// sequential per-tuple path, in input order.
			expectBatch := func(sid activerbac.SessionID, wantOwn bool, what string) bool {
				checks := []activerbac.BatchCheck{
					{Session: string(sid), Operation: ownOp, Object: ownObj},
					{Session: string(sid), Operation: foreignOp, Object: foreignObj},
					{Session: string(sid), Operation: ownOp, Object: ownObj}, // duplicate of [0]
					{Session: string(sid), Operation: foreignOp, Object: foreignObj},
					{Session: string(sid), Operation: ownOp, Object: ownObj},
				}
				want := []bool{wantOwn, false, wantOwn, false, wantOwn}
				seq := make([]bool, len(checks))
				for i, c := range checks {
					seq[i] = sys.CheckAccessTuple(c.Session, c.Operation, c.Object)
				}
				inProc := sys.CheckAccessBatch(checks, nil)
				overHTTP, err := httpCheckBatch(checks)
				if err != nil {
					t.Errorf("worker %d: %s: http batch: %v", w, what, err)
					return false
				}
				reqs := make([]wire.CheckRequest, len(checks))
				for i, c := range checks {
					reqs[i] = wire.CheckRequest{Session: c.Session, Operation: c.Operation, Object: c.Object}
				}
				overWire, err := wc.CheckMany(reqs)
				if err != nil {
					t.Errorf("worker %d: %s: wire batch: %v", w, what, err)
					return false
				}
				if len(inProc) != len(checks) || len(overHTTP) != len(checks) || len(overWire) != len(checks) {
					t.Errorf("worker %d: %s: batch verdict counts: in-process=%d http=%d wire=%d, want %d",
						w, what, len(inProc), len(overHTTP), len(overWire), len(checks))
					return false
				}
				for i := range checks {
					if seq[i] != inProc[i] || seq[i] != overHTTP[i] || seq[i] != overWire[i] {
						t.Errorf("worker %d: %s: batch verdict[%d] diverged: sequential=%v in-process=%v http=%v wire=%v",
							w, what, i, seq[i], inProc[i], overHTTP[i], overWire[i])
						return false
					}
					if seq[i] != want[i] {
						t.Errorf("worker %d: %s: batch verdict[%d] = %v, model says %v", w, what, i, seq[i], want[i])
						return false
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
				if i%5 == 2 {
					if !expectBatch(sid, true, "batch, role active") {
						return
					}
				}
				if i%10 == 9 {
					// Flip the worker's own role: every path must see the
					// session-grade invalidation, not a stale ALLOW.
					if err := sys.DropActiveRole(user, sid, role); err != nil {
						t.Errorf("worker %d: DropActiveRole: %v", w, err)
						return
					}
					if !awaitPush("role dropped") {
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
				}
				if i%25 == 24 {
					if err := sys.DeleteSession(sid); err != nil {
						t.Errorf("worker %d: DeleteSession: %v", w, err)
						return
					}
					if !awaitPush("session deleted") {
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

	// The multi-session batch participant: 64 sessions of its own (four
	// per user, the user's worker role active in each, never mutated) and
	// one 256-tuple frame per round that spans all of them, submitted
	// concurrently with the workers' checks. Every element must equal
	// the sequential per-tuple verdict and the model on the in-process
	// batch path, HTTP /v1/check-batch and the batch-native wire
	// CHECK_BATCH, under the same churn as the workers.
	workers.Add(1)
	go func() {
		defer workers.Done()
		const nSessions, nTuples = 64, 256
		sids := make([]activerbac.SessionID, nSessions)
		for i := range sids {
			user := activerbac.UserID(fmt.Sprintf("u%02d", i%16))
			sid, err := sys.CreateSession(user)
			if err == nil {
				err = sys.AddActiveRole(user, sid, activerbac.RoleID(fmt.Sprintf("W%d", i%8)))
			}
			if err != nil {
				t.Errorf("multi-session batch: session %d: %v", i, err)
				return
			}
			sids[i] = sid
		}
		checks := make([]activerbac.BatchCheck, nTuples)
		reqs := make([]wire.CheckRequest, nTuples)
		want := make([]bool, nTuples)
		for round := 0; round < iters; round++ {
			for i := range checks {
				s := (i + round) % nSessions
				r := s % 8 // the session's role; every third tuple asks a foreign permission
				want[i] = i%3 != 0
				if !want[i] {
					r = (r + 1) % 8
				}
				checks[i] = activerbac.BatchCheck{Session: string(sids[s]), Operation: fmt.Sprintf("op%d", r), Object: fmt.Sprintf("obj%d", r)}
				reqs[i] = wire.CheckRequest{Session: checks[i].Session, Operation: checks[i].Operation, Object: checks[i].Object}
			}
			inProc := sys.CheckAccessBatch(checks, nil)
			overHTTP, err := httpCheckBatch(checks)
			if err != nil {
				t.Errorf("multi-session batch: round %d: http: %v", round, err)
				return
			}
			overWire, err := wc.CheckMany(reqs)
			if err != nil {
				t.Errorf("multi-session batch: round %d: wire: %v", round, err)
				return
			}
			if len(inProc) != nTuples || len(overHTTP) != nTuples || len(overWire) != nTuples {
				t.Errorf("multi-session batch: round %d: verdict counts: in-process=%d http=%d wire=%d, want %d",
					round, len(inProc), len(overHTTP), len(overWire), nTuples)
				return
			}
			for i, c := range checks {
				seq := sys.CheckAccessTuple(c.Session, c.Operation, c.Object)
				if seq != want[i] || seq != inProc[i] || seq != overHTTP[i] || seq != overWire[i] {
					t.Errorf("multi-session batch: round %d: verdict[%d] (%+v): model=%v sequential=%v in-process=%v http=%v wire=%v",
						round, i, c, want[i], seq, inProc[i], overHTTP[i], overWire[i])
					return
				}
			}
		}
	}()

	workers.Wait()
	stop.Store(true)
	churn.Wait()

	// Quiescent cached-client epilogue: with the churn stopped, prove the
	// local serving path deterministically — under churn every epoch bump
	// retires the whole cache, so hit timing is probabilistic above. Seed
	// an allow, require the repeat to be served locally, then flip the
	// role and require the push to retire the entry before the next check.
	cacheEpilogue := func() {
		sid, err := sys.CreateSession("u00")
		if err != nil {
			t.Errorf("cache epilogue: CreateSession: %v", err)
			return
		}
		if err := sys.AddActiveRole("u00", sid, "W0"); err != nil {
			t.Errorf("cache epilogue: AddActiveRole: %v", err)
			return
		}
		await := func(what string) bool {
			target := sys.PushEpoch()
			deadline := time.Now().Add(30 * time.Second)
			for cc.Epoch() < target {
				if !cc.Subscribed() {
					t.Errorf("cache epilogue: %s: subscription lost", what)
					return false
				}
				if time.Now().After(deadline) {
					t.Errorf("cache epilogue: %s: cache epoch %d never caught up to %d", what, cc.Epoch(), target)
					return false
				}
				time.Sleep(100 * time.Microsecond)
			}
			return true
		}
		if !await("after session setup") {
			return
		}
		before := cc.Stats()
		for i := 0; i < 2; i++ {
			allowed, err := cc.Check(string(sid), "op0", "obj0")
			if err != nil || !allowed {
				t.Errorf("cache epilogue: check %d = (%v, %v), want (true, nil)", i, allowed, err)
				return
			}
		}
		if after := cc.Stats(); after.Hits == before.Hits {
			t.Error("cache epilogue: repeat allow was not served locally")
			return
		}
		if err := sys.DropActiveRole("u00", sid, "W0"); err != nil {
			t.Errorf("cache epilogue: DropActiveRole: %v", err)
			return
		}
		if !await("after role drop") {
			return
		}
		inProc := sys.CheckAccessTuple(string(sid), "op0", "obj0")
		cached, err := cc.Check(string(sid), "op0", "obj0")
		if err != nil {
			t.Errorf("cache epilogue: check after drop: %v", err)
			return
		}
		if inProc || cached {
			t.Errorf("cache epilogue: verdict after role drop: in-process=%v cached=%v, want false/false (stale allow served)",
				inProc, cached)
		}
	}
	cacheEpilogue()

	// The acceptance bar for the cached participant: the run must have
	// exercised it across at least 20 policy-epoch bumps. Invalidations
	// counts coalesced pushes observed by the cache; churn bumps the
	// epoch every couple of milliseconds for the whole worker phase, so
	// anything near the floor means the subscription was not live.
	if st := cc.Stats(); st.Invalidations < 20 {
		t.Errorf("client cache observed %d invalidations, want >= 20 epoch pushes across the churn phase", st.Invalidations)
	} else {
		t.Logf("client cache stats: hits=%d misses=%d invalidations=%d epoch=%d subscribed=%v",
			st.Hits, st.Misses, st.Invalidations, cc.Epoch(), cc.Subscribed())
	}

	// Traced differential: the same check forced onto the traced cascade
	// once per transport — a client-minted id via the X-Activerbac-Trace
	// header, and the same id mechanism via the wire TRACE flag — must
	// resolve at /v1/traces/{id} under each id with identical cascade
	// step sequences.
	fetchTrace := func(tid activerbac.TraceID) (activerbac.TraceData, bool) {
		resp, err := http.Get(httpSrv.URL + "/v1/traces/" + tid.String())
		if err != nil {
			t.Errorf("traced differential: fetch %s: %v", tid, err)
			return activerbac.TraceData{}, false
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("traced differential: /v1/traces/%s returned %d", tid, resp.StatusCode)
			return activerbac.TraceData{}, false
		}
		var td activerbac.TraceData
		if err := json.NewDecoder(resp.Body).Decode(&td); err != nil {
			t.Errorf("traced differential: decode trace %s: %v", tid, err)
			return activerbac.TraceData{}, false
		}
		return td, true
	}
	tracedDifferential := func() {
		sid, err := sys.CreateSession("u00")
		if err != nil {
			t.Errorf("traced differential: CreateSession: %v", err)
			return
		}
		if err := sys.AddActiveRole("u00", sid, "W0"); err != nil {
			t.Errorf("traced differential: AddActiveRole: %v", err)
			return
		}

		// HTTP: header-carried id.
		httpTID := activerbac.NewTraceID()
		req, err := http.NewRequest("GET", httpSrv.URL+"/v1/check?"+url.Values{
			"session": {string(sid)}, "operation": {"op0"}, "object": {"obj0"},
		}.Encode(), nil)
		if err != nil {
			t.Errorf("traced differential: build request: %v", err)
			return
		}
		req.Header.Set("X-Activerbac-Trace", httpTID.String())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("traced differential: http check: %v", err)
			return
		}
		echoed := resp.Header.Get("X-Activerbac-Trace")
		var v struct {
			Allowed bool `json:"allowed"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || !v.Allowed {
			t.Errorf("traced differential: http check = (%v, %v), want allowed", v.Allowed, err)
			return
		}
		if echoed != httpTID.String() {
			t.Errorf("traced differential: header echo %q, want %q", echoed, httpTID)
			return
		}

		// Wire: TRACE-flagged CHECK with the same machinery.
		wireTID := activerbac.NewTraceID()
		allowed, err := wc.CheckTraced(string(sid), "op0", "obj0", wireTID)
		if err != nil || !allowed {
			t.Errorf("traced differential: wire CheckTraced = (%v, %v), want allowed", allowed, err)
			return
		}

		httpTD, ok := fetchTrace(httpTID)
		if !ok {
			return
		}
		wireTD, ok := fetchTrace(wireTID)
		if !ok {
			return
		}
		if httpTD.TraceID != httpTID.String() || wireTD.TraceID != wireTID.String() {
			t.Errorf("traced differential: trace ids %q/%q, want %q/%q",
				httpTD.TraceID, wireTD.TraceID, httpTID, wireTID)
			return
		}
		if len(httpTD.Steps) == 0 || !httpTD.Complete || !wireTD.Complete {
			t.Errorf("traced differential: incomplete traces: http %d steps complete=%v, wire %d steps complete=%v",
				len(httpTD.Steps), httpTD.Complete, len(wireTD.Steps), wireTD.Complete)
			return
		}
		// Identical cascades: same step count, and per step the same
		// kind/event/rule/outcome (timestamps naturally differ).
		if len(httpTD.Steps) != len(wireTD.Steps) {
			t.Errorf("traced differential: step counts diverged: http=%d wire=%d\nhttp: %+v\nwire: %+v",
				len(httpTD.Steps), len(wireTD.Steps), httpTD.Steps, wireTD.Steps)
			return
		}
		for i := range httpTD.Steps {
			h, w := httpTD.Steps[i], wireTD.Steps[i]
			if h.Kind != w.Kind || h.Event != w.Event || h.Rule != w.Rule || h.OK != w.OK {
				t.Errorf("traced differential: step %d diverged: http=%+v wire=%+v", i, h, w)
				return
			}
		}
	}
	tracedDifferential()

	st := sys.FastPathStats()
	if st.Hits == 0 {
		t.Error("differential run never hit the verdict cache; the wire paths were not exercised against it")
	}
	if st.Invalidations == 0 {
		t.Error("differential run never invalidated the cache; the churn was not exercised")
	}
	t.Logf("fastpath stats: hits=%d misses=%d bypass=%d invalidations=%d epoch=%d",
		st.Hits, st.Misses, st.Bypass, st.Invalidations, st.Epoch)
}

// TestWireEpochTracksReload: POLICY_VERSION over the wire must report
// the bumped snapshot epoch after a hot reload.
func TestWireEpochTracksReload(t *testing.T) {
	sys, err := activerbac.Open(wireStressPolicy("09:00:00"), &activerbac.Options{
		Clock: activerbac.NewSimClock(time.Date(2026, 7, 6, 9, 30, 0, 0, time.UTC)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv := &server{sys: sys, analyzeMode: "off"}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireSrv := wire.NewServer(wireBackend{srv}, nil)
	go wireSrv.Serve(wln)
	defer wireSrv.Close()
	wc, err := wire.Dial(wln.Addr().String(), &wire.ClientOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	before, err := wc.PolicyVersion()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ApplyPolicy(wireStressPolicy("08:30:00")); err != nil {
		t.Fatal(err)
	}
	after, err := wc.PolicyVersion()
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("epoch did not advance across reload: %d -> %d", before, after)
	}
}
