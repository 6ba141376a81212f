package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"context"
)

// ---------------------------------------------------------------------------
// Codec

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello frame")
	buf := AppendFrame(nil, OpCheck, 42, payload)
	if len(buf) != HeaderSize+len(payload) {
		t.Fatalf("frame length = %d, want %d", len(buf), HeaderSize+len(payload))
	}
	dec := NewDecoder(bytes.NewReader(buf), 0)
	f, err := dec.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Op != OpCheck || f.ID != 42 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("decoded frame = %+v", f)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameRoundTripEmptyPayload(t *testing.T) {
	buf := AppendFrame(nil, OpPing, 7, nil)
	f, err := NewDecoder(bytes.NewReader(buf), 0).Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if f.Op != OpPing || f.ID != 7 || len(f.Payload) != 0 {
		t.Fatalf("decoded frame = %+v", f)
	}
}

func TestDecoderRejects(t *testing.T) {
	good := AppendFrame(nil, OpPing, 1, []byte("x"))

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] = 0x00
		if _, err := NewDecoder(bytes.NewReader(b), 0).Next(); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[2] = Version + 1
		if _, err := NewDecoder(bytes.NewReader(b), 0).Next(); !errors.Is(err, ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		b := AppendFrame(nil, OpCheck, 1, make([]byte, 100))
		if _, err := NewDecoder(bytes.NewReader(b), HeaderSize+50).Next(); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := NewDecoder(bytes.NewReader(good[:5]), 0).Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		if _, err := NewDecoder(bytes.NewReader(good[:len(good)-1]), 0).Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
		}
	})
}

func TestCheckPayloadRoundTrip(t *testing.T) {
	b := AppendCheck(nil, "sid-1", "approve", "order#9")
	sess, op, obj, err := ConsumeCheck(b)
	if err != nil {
		t.Fatalf("ConsumeCheck: %v", err)
	}
	if sess != "sid-1" || op != "approve" || obj != "order#9" {
		t.Fatalf("got (%q %q %q)", sess, op, obj)
	}
	if _, _, _, err := ConsumeCheck(append(b, 0)); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("trailing byte: err = %v, want ErrBadPayload", err)
	}
	if _, _, _, err := ConsumeCheck(b[:len(b)-2]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("truncated: err = %v, want ErrBadPayload", err)
	}
}

func TestCheckBatchRoundTrip(t *testing.T) {
	reqs := []CheckRequest{
		{Session: "s1", Operation: "read", Object: "a"},
		{Session: "s2", Operation: "write", Object: "b"},
		{Session: "", Operation: "", Object: ""},
	}
	b := AppendCheckBatch(nil, reqs)
	got, err := ConsumeCheckBatch(b, nil)
	if err != nil {
		t.Fatalf("ConsumeCheckBatch: %v", err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("len = %d, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		if got[i] != reqs[i] {
			t.Fatalf("req %d = %+v, want %+v", i, got[i], reqs[i])
		}
	}
	if _, err := ConsumeCheckBatch(append(b, 9), nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("trailing byte: err = %v, want ErrBadPayload", err)
	}
}

func TestVerdictsRoundTrip(t *testing.T) {
	vs := []bool{true, false, true, true}
	b := AppendVerdicts(nil, vs)
	got, err := ConsumeVerdicts(b, nil)
	if err != nil {
		t.Fatalf("ConsumeVerdicts: %v", err)
	}
	if len(got) != len(vs) {
		t.Fatalf("len = %d, want %d", len(got), len(vs))
	}
	for i := range vs {
		if got[i] != vs[i] {
			t.Fatalf("verdict %d = %v, want %v", i, got[i], vs[i])
		}
	}
	b[1] = 7 // a verdict byte other than 0/1
	if _, err := ConsumeVerdicts(b, nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("bad verdict byte: err = %v, want ErrBadPayload", err)
	}
}

func TestErrorPayloadRoundTrip(t *testing.T) {
	b := AppendErrorPayload(nil, ErrCodeBadRequest, "nope")
	code, msg, err := ConsumeErrorPayload(b)
	if err != nil {
		t.Fatalf("ConsumeErrorPayload: %v", err)
	}
	if code != ErrCodeBadRequest || msg != "nope" {
		t.Fatalf("got (%d %q)", code, msg)
	}
	if _, _, err := ConsumeErrorPayload(nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("empty: err = %v, want ErrBadPayload", err)
	}
}

func TestEpochRoundTrip(t *testing.T) {
	b := AppendEpoch(nil, 0xDEADBEEF01)
	e, err := ConsumeEpoch(b)
	if err != nil || e != 0xDEADBEEF01 {
		t.Fatalf("got (%d, %v)", e, err)
	}
	if _, err := ConsumeEpoch(b[:7]); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("short: err = %v, want ErrBadPayload", err)
	}
}

// ---------------------------------------------------------------------------
// Server + client integration

// testBackend is a deterministic Backend: session "blocked" parks until
// release is closed (for pipelining and drain tests), any other check
// allows iff operation == "read".
type testBackend struct {
	epoch   atomic.Uint64
	release chan struct{}
	parked  atomic.Int32
}

func newTestBackend() *testBackend {
	tb := &testBackend{release: make(chan struct{})}
	tb.epoch.Store(3)
	return tb
}

func (tb *testBackend) Check(session, operation, object string) bool {
	if session == "blocked" {
		tb.parked.Add(1)
		<-tb.release
	}
	return operation == "read"
}

func (tb *testBackend) PolicyEpoch() uint64 { return tb.epoch.Load() }

func (tb *testBackend) CheckBatch(reqs []CheckRequest, vs []bool) []bool {
	for _, r := range reqs {
		vs = append(vs, tb.Check(r.Session, r.Operation, r.Object))
	}
	return vs
}

// startServer runs a wire server on a loopback listener and returns its
// address plus a cleanup-registered handle.
func startServer(t *testing.T, tb *testBackend, opts *ServerOptions) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(tb, opts)
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

func TestClientServerBasics(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Conns: 2, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	allowed, err := cl.Check("s1", "read", "doc")
	if err != nil || !allowed {
		t.Fatalf("Check read = (%v, %v), want (true, nil)", allowed, err)
	}
	allowed, err = cl.Check("s1", "write", "doc")
	if err != nil || allowed {
		t.Fatalf("Check write = (%v, %v), want (false, nil)", allowed, err)
	}
	epoch, err := cl.PolicyVersion()
	if err != nil || epoch != 3 {
		t.Fatalf("PolicyVersion = (%d, %v), want (3, nil)", epoch, err)
	}
	verdicts, err := cl.CheckMany([]CheckRequest{
		{Session: "s1", Operation: "read", Object: "a"},
		{Session: "s1", Operation: "write", Object: "b"},
		{Session: "s2", Operation: "read", Object: "c"},
	})
	if err != nil {
		t.Fatalf("CheckMany: %v", err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if verdicts[i] != want[i] {
			t.Fatalf("verdicts = %v, want %v", verdicts, want)
		}
	}
}

func TestClientConcurrent(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Conns: 2, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				op := "read"
				want := true
				if (g+i)%2 == 1 {
					op, want = "write", false
				}
				got, err := cl.Check("s", op, "o")
				if err != nil {
					t.Errorf("Check: %v", err)
					return
				}
				if got != want {
					t.Errorf("Check(%q) = %v, want %v", op, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPipeliningOutOfOrder proves responses are correlated by id, not
// arrival order: a check parked in the backend must not block a ping
// issued after it on the same connection.
func TestPipeliningOutOfOrder(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Conns: 1, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	checkDone := make(chan error, 1)
	go func() {
		_, err := cl.Check("blocked", "read", "doc")
		checkDone <- err
	}()
	// Wait until the check is parked inside the backend.
	for i := 0; tb.parked.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("check never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	// The ping is issued after the parked check on the same connection;
	// it can only complete if the server responds out of order.
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping behind parked check: %v", err)
	}
	select {
	case err := <-checkDone:
		t.Fatalf("check finished before release (err=%v)", err)
	default:
	}
	close(tb.release)
	if err := <-checkDone; err != nil {
		t.Fatalf("released check: %v", err)
	}
}

// TestBackpressureMaxInFlight asserts the server never admits more than
// MaxInFlight requests on one connection, observed via the Inflight
// instrument while the backend is parked.
func TestBackpressureMaxInFlight(t *testing.T) {
	tb := newTestBackend()
	var inflight, peak atomic.Int64
	ins := &Instruments{Inflight: func(d float64) {
		cur := inflight.Add(int64(d))
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
	}}
	const cap = 4
	_, addr := startServer(t, tb, &ServerOptions{MaxInFlight: cap, Workers: 8, Instruments: ins})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// Fire 32 parked checks at a server capped at 4 in flight.
	var buf []byte
	for id := uint32(0); id < 32; id++ {
		buf = AppendFrame(buf, OpCheck, id, AppendCheck(nil, "blocked", "read", "doc"))
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Give the reader ample time to over-admit if it were going to.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && tb.parked.Load() < cap {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if p := peak.Load(); p > cap {
		t.Fatalf("peak in-flight = %d, want <= %d", p, cap)
	}
	close(tb.release)
	// All 32 responses must still arrive.
	dec := NewDecoder(bufio.NewReader(nc), 0)
	seen := map[uint32]bool{}
	for len(seen) < 32 {
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("after %d responses: %v", len(seen), err)
		}
		if f.Op != OpCheck|RespFlag {
			t.Fatalf("op = %#x", f.Op)
		}
		seen[f.ID] = true
	}
}

// TestOversizedFrameDropsConn: a frame above MaxFrame must kill the
// connection (the stream cannot be resynchronized).
func TestOversizedFrameDropsConn(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, &ServerOptions{MaxFrame: 256})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write(AppendFrame(nil, OpPing, 1, make([]byte, 1024))); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("expected clean close, got read error %v", err)
	}
}

// TestUnknownOpcodeKeepsConn: unknown opcodes get an ERROR frame and the
// connection keeps serving.
func TestUnknownOpcodeKeepsConn(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	var buf []byte
	buf = AppendFrame(buf, 0x6E, 9, nil) // unknown opcode
	buf = AppendFrame(buf, OpPing, 10, []byte("still here"))
	if _, err := nc.Write(buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	dec := NewDecoder(bufio.NewReader(nc), 0)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := dec.Next()
	if err != nil {
		t.Fatalf("first response: %v", err)
	}
	if f.Op != OpError || f.ID != 9 {
		t.Fatalf("first response = op %#x id %d, want ERROR id 9", f.Op, f.ID)
	}
	code, _, err := ConsumeErrorPayload(f.Payload)
	if err != nil || code != ErrCodeUnknownOp {
		t.Fatalf("error payload = (%d, %v), want code %d", code, err, ErrCodeUnknownOp)
	}
	f, err = dec.Next()
	if err != nil {
		t.Fatalf("second response: %v", err)
	}
	if f.Op != OpPing|RespFlag || f.ID != 10 || string(f.Payload) != "still here" {
		t.Fatalf("second response = %+v", f)
	}
}

// TestBadPayloadError: a CHECK with a garbage payload gets an ERROR
// carrying its request id and the connection survives.
func TestBadPayloadError(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	if _, err := nc.Write(AppendFrame(nil, OpCheck, 77, []byte{0xFF, 0xFF})); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := NewDecoder(bufio.NewReader(nc), 0).Next()
	if err != nil {
		t.Fatalf("response: %v", err)
	}
	if f.Op != OpError || f.ID != 77 {
		t.Fatalf("response = op %#x id %d, want ERROR id 77", f.Op, f.ID)
	}
	code, _, err := ConsumeErrorPayload(f.Payload)
	if err != nil || code != ErrCodeBadRequest {
		t.Fatalf("error payload = (%d, %v), want code %d", code, err, ErrCodeBadRequest)
	}
}

// TestClientRemoteError: the client surfaces ERROR frames as *RemoteError.
func TestClientRemoteError(t *testing.T) {
	// A raw server that answers everything with ERROR.
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
		for {
			f, err := dec.Next()
			if err != nil {
				return
			}
			c.Write(AppendFrame(nil, OpError, f.ID, AppendErrorPayload(nil, ErrCodeUnknownOp, "go away")))
		}
	}()
	cl, err := Dial(ln.Addr().String(), &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	_, err = cl.Check("s", "read", "o")
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != ErrCodeUnknownOp || re.Msg != "go away" {
		t.Fatalf("err = %v, want RemoteError{2, go away}", err)
	}
}

// TestServerReadTimeout: a client that trickles (or goes silent) is
// disconnected once the per-frame read deadline expires.
func TestServerReadTimeout(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, &ServerOptions{ReadTimeout: 100 * time.Millisecond})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// Send half a header, then stall.
	if _, err := nc.Write([]byte{magic0, magic1, Version}); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("expected server to close cleanly, got %v", err)
	}
}

// TestShutdownDrains: Shutdown must let an admitted (parked) check
// finish and flush its response before the connection closes.
func TestShutdownDrains(t *testing.T) {
	tb := newTestBackend()
	srv, addr := startServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	checkDone := make(chan error, 1)
	var allowed atomic.Bool
	go func() {
		ok, err := cl.Check("blocked", "read", "doc")
		allowed.Store(ok)
		checkDone <- err
	}()
	for i := 0; tb.parked.Load() == 0; i++ {
		if i > 1000 {
			t.Fatal("check never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // let Shutdown reach the drain wait
	close(tb.release)

	if err := <-checkDone; err != nil {
		t.Fatalf("in-flight check during shutdown: %v", err)
	}
	if !allowed.Load() {
		t.Fatal("in-flight check verdict lost during shutdown")
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestClientRedial: the client replaces a connection the server dropped.
func TestClientRedial(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, &ServerOptions{MaxFrame: 256})
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second, MaxFrame: 1 << 20})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("first ping: %v", err)
	}
	// Provoke a server-side drop: this frame exceeds the server's max.
	big := make([]byte, 512)
	if _, err := cl.roundTrip(OpPing, big); err == nil {
		t.Fatal("oversized ping unexpectedly succeeded")
	}
	// The pool must redial and keep working.
	var lastErr error
	for i := 0; i < 50; i++ {
		if lastErr = cl.Ping(); lastErr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr != nil {
		t.Fatalf("ping after redial: %v", lastErr)
	}
}

// TestInstrumentsCounts: Request and Error hooks fire per frame.
func TestInstrumentsCounts(t *testing.T) {
	tb := newTestBackend()
	var reqs, errs sync.Map // opcode -> *atomic.Int64
	count := func(m *sync.Map, op string) {
		v, _ := m.LoadOrStore(op, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	ins := &Instruments{
		Request: func(op string) { count(&reqs, op) },
		Error:   func(op string) { count(&errs, op) },
	}
	_, addr := startServer(t, tb, &ServerOptions{Instruments: ins})
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	cl.Ping()
	cl.Check("s", "read", "o")
	cl.CheckMany([]CheckRequest{{Session: "s", Operation: "read", Object: "o"}})
	cl.PolicyVersion()
	got := func(m *sync.Map, op string) int64 {
		v, ok := m.Load(op)
		if !ok {
			return 0
		}
		return v.(*atomic.Int64).Load()
	}
	for _, op := range []string{"ping", "check", "check_batch", "policy_version"} {
		if n := got(&reqs, op); n != 1 {
			t.Errorf("requests[%s] = %d, want 1", op, n)
		}
	}
	if n := got(&errs, "check"); n != 0 {
		t.Errorf("errors[check] = %d, want 0", n)
	}
}
