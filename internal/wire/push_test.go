package wire

import (
	"bufio"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Codec

func TestCacheVerdictRoundTrip(t *testing.T) {
	for _, tc := range []struct{ allowed, cacheable bool }{
		{false, false}, {true, false}, {false, true}, {true, true},
	} {
		b := AppendCacheVerdict(nil, tc.allowed, tc.cacheable)
		allowed, cacheable, err := ConsumeCacheVerdict(b)
		if err != nil || allowed != tc.allowed || cacheable != tc.cacheable {
			t.Fatalf("round trip %+v = (%v, %v, %v)", tc, allowed, cacheable, err)
		}
	}
	if _, _, err := ConsumeCacheVerdict(nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("empty: err = %v, want ErrBadPayload", err)
	}
	if _, _, err := ConsumeCacheVerdict([]byte{1, 0}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("long: err = %v, want ErrBadPayload", err)
	}
	if _, _, err := ConsumeCacheVerdict([]byte{4}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("reserved bits: err = %v, want ErrBadPayload", err)
	}
}

// ---------------------------------------------------------------------------
// Push latch

// TestNotifyPushCoalesces: the per-connection latch holds one pending
// push carrying the newest epoch, however many bumps land before the
// writer drains it.
func TestNotifyPushCoalesces(t *testing.T) {
	sc := &srvConn{pushCh: make(chan struct{}, 1)}
	for e := uint64(1); e <= 100; e++ {
		sc.notifyPush(e)
	}
	if n := len(sc.pushCh); n != 1 {
		t.Fatalf("pending pushes = %d, want 1", n)
	}
	if e := sc.pushEpoch.Load(); e != 100 {
		t.Fatalf("latched epoch = %d, want 100", e)
	}
	<-sc.pushCh
	sc.notifyPush(101)
	if n := len(sc.pushCh); n != 1 {
		t.Fatalf("re-armed pending pushes = %d, want 1", n)
	}
}

// ---------------------------------------------------------------------------
// SUBSCRIBE / EPOCH_PUSH / CacheFlag integration

// pushTestBackend upgrades testBackend with the push-epoch and
// cacheability interfaces: the push epoch is test-controlled, and
// verdicts on object "volatile" are allowed but never cacheable.
type pushTestBackend struct {
	*testBackend
	push atomic.Uint64
}

func newPushTestBackend() *pushTestBackend {
	return &pushTestBackend{testBackend: newTestBackend()}
}

func (pb *pushTestBackend) PushEpoch() uint64 { return pb.push.Load() }

func (pb *pushTestBackend) CheckCacheable(session, operation, object string) (allowed, cacheable bool) {
	allowed = pb.Check(session, operation, object)
	return allowed, allowed && object != "volatile"
}

// startPushServer is startServer for any backend shape.
func startPushServer(t *testing.T, b Backend, opts *ServerOptions) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(b, opts)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, ln.Addr().String()
}

func TestSubscribeDeliversPushes(t *testing.T) {
	pb := newPushTestBackend()
	pb.push.Store(7)
	var pushed, subGauge atomic.Int64
	ins := &Instruments{
		Push:        func() { pushed.Add(1) },
		Subscribers: func(d float64) { subGauge.Add(int64(d)) },
	}
	srv, addr := startPushServer(t, pb, &ServerOptions{Instruments: ins})

	got := make(chan uint64, 256)
	cl, err := Dial(addr, &ClientOptions{
		Timeout:     5 * time.Second,
		OnEpochPush: func(e uint64) { got <- e },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	epoch, err := cl.Subscribe()
	if err != nil || epoch != 7 {
		t.Fatalf("Subscribe = (%d, %v), want (7, nil)", epoch, err)
	}
	if g := subGauge.Load(); g != 1 {
		t.Fatalf("subscriber gauge = %d, want 1", g)
	}
	// Re-subscribing the same connection is idempotent (rbacd restarts of
	// the client loop must not leak registrations).
	if epoch, err := cl.Subscribe(); err != nil || epoch != 7 {
		t.Fatalf("re-Subscribe = (%d, %v), want (7, nil)", epoch, err)
	}
	if g := subGauge.Load(); g != 1 {
		t.Fatalf("subscriber gauge after re-subscribe = %d, want 1", g)
	}

	pb.push.Store(8)
	srv.NotifyEpoch(8)
	select {
	case e := <-got:
		if e != 8 {
			t.Fatalf("pushed epoch = %d, want 8", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no push after NotifyEpoch")
	}

	// A burst of bumps must deliver the newest epoch; intermediate pushes
	// may be coalesced away but never reordered past the latest.
	for e := uint64(9); e <= 40; e++ {
		pb.push.Store(e)
		srv.NotifyEpoch(e)
	}
	deadline := time.After(5 * time.Second)
	var last uint64
	for last != 40 {
		select {
		case e := <-got:
			if e < last {
				t.Fatalf("push went backwards: %d after %d", e, last)
			}
			last = e
		case <-deadline:
			t.Fatalf("latest epoch never arrived; last push = %d", last)
		}
	}
	// The writer counts a push after the frame is written, so the client
	// can see epoch 40 before the instrument does.
	for i := 0; pushed.Load() < 2 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if p := pushed.Load(); p < 2 || p > 33 {
		t.Fatalf("push instrument = %d, want between 2 and 33", p)
	}

	// Closing the subscribed connection must release the registration.
	cl.Close()
	for i := 0; subGauge.Load() != 0; i++ {
		if i > 1000 {
			t.Fatalf("subscriber gauge stuck at %d after close", subGauge.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubscribeUnsupportedBackend(t *testing.T) {
	tb := newTestBackend() // no PushEpoch, no CheckCacheable
	_, addr := startServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	var re *RemoteError
	if _, err := cl.Subscribe(); !errors.As(err, &re) || re.Code != ErrCodeUnsupported {
		t.Fatalf("Subscribe err = %v, want RemoteError code %d", err, ErrCodeUnsupported)
	}
	re = nil
	if _, _, err := cl.CheckCacheable("s", "read", "o"); !errors.As(err, &re) || re.Code != ErrCodeUnsupported {
		t.Fatalf("CheckCacheable err = %v, want RemoteError code %d", err, ErrCodeUnsupported)
	}
	// The connection survives both refusals.
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after unsupported requests: %v", err)
	}
}

func TestSubscribeLimit(t *testing.T) {
	pb := newPushTestBackend()
	_, addr := startPushServer(t, pb, &ServerOptions{MaxSubscribers: 1})

	cl1, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	defer cl1.Close()
	if _, err := cl1.Subscribe(); err != nil {
		t.Fatalf("first Subscribe: %v", err)
	}

	cl2, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	defer cl2.Close()
	var re *RemoteError
	if _, err := cl2.Subscribe(); !errors.As(err, &re) || re.Code != ErrCodeSubscribeLimit {
		t.Fatalf("second Subscribe err = %v, want RemoteError code %d", err, ErrCodeSubscribeLimit)
	}
}

// TestSubscribePayloadRejected: SUBSCRIBE carries no payload; a frame
// with one gets ErrCodeBadRequest and the connection survives.
func TestSubscribePayloadRejected(t *testing.T) {
	pb := newPushTestBackend()
	_, addr := startPushServer(t, pb, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write(AppendFrame(nil, OpSubscribe, 5, []byte("x"))); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := NewDecoder(bufio.NewReader(nc), 0).Next()
	if err != nil {
		t.Fatalf("response: %v", err)
	}
	if f.Op != OpError || f.ID != 5 {
		t.Fatalf("response = op %#x id %d, want ERROR id 5", f.Op, f.ID)
	}
	code, _, err := ConsumeErrorPayload(f.Payload)
	if err != nil || code != ErrCodeBadRequest {
		t.Fatalf("error payload = (%d, %v), want code %d", code, err, ErrCodeBadRequest)
	}
}

func TestCheckCacheable(t *testing.T) {
	pb := newPushTestBackend()
	_, addr := startPushServer(t, pb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	for _, tc := range []struct {
		op, obj            string
		allowed, cacheable bool
	}{
		{"read", "doc", true, true},
		{"write", "doc", false, false},
		{"read", "volatile", true, false}, // allowed but classified uncacheable
	} {
		allowed, cacheable, err := cl.CheckCacheable("s", tc.op, tc.obj)
		if err != nil {
			t.Fatalf("CheckCacheable(%s %s): %v", tc.op, tc.obj, err)
		}
		if allowed != tc.allowed || cacheable != tc.cacheable {
			t.Fatalf("CheckCacheable(%s %s) = (%v, %v), want (%v, %v)",
				tc.op, tc.obj, allowed, cacheable, tc.allowed, tc.cacheable)
		}
	}
}

// TestSubscriptionLostOnDrop: when the subscribed connection dies, the
// loss callback fires so push-derived caches can stop serving.
func TestSubscriptionLostOnDrop(t *testing.T) {
	pb := newPushTestBackend()
	srv, addr := startPushServer(t, pb, nil)
	lost := make(chan struct{}, 1)
	cl, err := Dial(addr, &ClientOptions{
		Timeout:            5 * time.Second,
		OnSubscriptionLost: func() { lost <- struct{}{} },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	srv.Close()
	select {
	case <-lost:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription loss never reported")
	}
}

// TestBadPushKillsConn: an EPOCH_PUSH that does not decode means
// invalidations may be lost — the client must kill the connection and
// report the subscription lost rather than serve stale state.
func TestBadPushKillsConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		dec := NewDecoder(bufio.NewReader(c), 0)
		f, err := dec.Next() // the SUBSCRIBE
		if err != nil {
			return
		}
		c.Write(AppendFrame(nil, OpSubscribe|RespFlag, f.ID, AppendEpoch(nil, 1)))
		c.Write(AppendFrame(nil, OpEpochPush, 0, []byte{1, 2, 3})) // truncated epoch
		dec.Next()                                                 // hold the conn open until the client drops it
	}()
	lost := make(chan struct{}, 1)
	cl, err := Dial(ln.Addr().String(), &ClientOptions{
		Timeout:            5 * time.Second,
		OnSubscriptionLost: func() { lost <- struct{}{} },
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Subscribe(); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	select {
	case <-lost:
	case <-time.After(5 * time.Second):
		t.Fatal("bad push did not kill the connection")
	}
}

// ---------------------------------------------------------------------------
// Redial backoff

// TestRedialBackoff: a dead slot redials under exponential backoff —
// while backing off, requests fast-fail with ErrBackoff instead of
// dialing, and a successful dial resets the schedule.
func TestRedialBackoff(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, nil)

	// A listener that is closed immediately: its port actively refuses
	// connections for the failure phase.
	refusing, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	refusedAddr := refusing.Addr().String()
	refusing.Close()

	cl, err := Dial(addr, &ClientOptions{Timeout: time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	var dials atomic.Int32
	target := atomic.Pointer[string]{}
	target.Store(&refusedAddr)
	cl.dial = func() (net.Conn, error) {
		dials.Add(1)
		return net.DialTimeout("tcp", *target.Load(), time.Second)
	}

	// Kill the live connection so the next request must redial.
	slot := cl.slots[0]
	slot.mu.Lock()
	slot.cc.fail(errors.New("test: drop"))
	slot.mu.Unlock()

	// First attempt dials the refusing listener and fails.
	if err := cl.Ping(); err == nil {
		t.Fatal("ping against refusing listener succeeded")
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dials after first failure = %d, want 1", n)
	}
	// An immediate retry must fast-fail inside the backoff window without
	// touching the network.
	if err := cl.Ping(); !errors.Is(err, ErrBackoff) {
		t.Fatalf("retry inside backoff: err = %v, want ErrBackoff", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("dials after fast-fail = %d, want 1 (backoff must not dial)", n)
	}

	// After the first window (redialBase + <=50% jitter) the slot dials
	// again; consecutive failures widen the window.
	time.Sleep(redialBase + redialBase/2 + 5*time.Millisecond)
	if err := cl.Ping(); err == nil || errors.Is(err, ErrBackoff) {
		t.Fatalf("second dial attempt: err = %v, want a dial error", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials after second window = %d, want 2", n)
	}
	slot.mu.Lock()
	fails, next := slot.fails, slot.nextDial
	slot.mu.Unlock()
	if fails != 2 || !next.After(time.Now()) {
		t.Fatalf("slot after 2 failures: fails=%d nextDial=%v", fails, next)
	}

	// Point the dialer back at the live server: once the backoff window
	// passes, the redial succeeds and the schedule resets.
	target.Store(&addr)
	var lastErr error
	for i := 0; i < 400; i++ {
		if lastErr = cl.Ping(); lastErr == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("ping after recovery: %v", lastErr)
	}
	slot.mu.Lock()
	fails, next = slot.fails, slot.nextDial
	slot.mu.Unlock()
	if fails != 0 || !next.IsZero() {
		t.Fatalf("slot after recovery: fails=%d nextDial=%v, want reset", fails, next)
	}
}
