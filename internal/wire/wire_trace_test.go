package wire

import (
	"net"
	"sync"
	"testing"
	"time"
)

// tracedBackend is testBackend recording the trace id carried by the
// first request of every batch it is handed.
type tracedBackend struct {
	*testBackend

	mu   sync.Mutex
	tids [][TraceIDSize]byte
}

func (tb *tracedBackend) CheckBatch(reqs []CheckRequest, vs []bool) []bool {
	if len(reqs) > 0 && reqs[0].Trace != ([TraceIDSize]byte{}) {
		tb.mu.Lock()
		tb.tids = append(tb.tids, reqs[0].Trace)
		tb.mu.Unlock()
	}
	return tb.testBackend.CheckBatch(reqs, vs)
}

func (tb *tracedBackend) seen() [][TraceIDSize]byte {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return append([][TraceIDSize]byte(nil), tb.tids...)
}

// startTracedServer mirrors startServer for the upgraded backend.
func startTracedServer(t *testing.T, tb *tracedBackend, opts *ServerOptions) (*Server, string) {
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

func TestTraceIDPayloadRoundTrip(t *testing.T) {
	tid := [TraceIDSize]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	b := AppendTraceID(nil, tid)
	b = AppendCheck(b, "s", "read", "doc")
	got, rest, err := ConsumeTraceID(b)
	if err != nil {
		t.Fatalf("ConsumeTraceID: %v", err)
	}
	if got != tid {
		t.Fatalf("tid = %v, want %v", got, tid)
	}
	s, op, obj, err := ConsumeCheck(rest)
	if err != nil || s != "s" || op != "read" || obj != "doc" {
		t.Fatalf("ConsumeCheck after tid = (%q,%q,%q,%v)", s, op, obj, err)
	}
	if _, _, err := ConsumeTraceID(make([]byte, TraceIDSize-1)); err == nil {
		t.Fatal("ConsumeTraceID accepted a short prefix")
	}
}

func TestOpNameFlags(t *testing.T) {
	cases := map[byte]string{
		OpCheck:                             "check",
		OpCheck | TraceFlag:                 "check",
		OpCheck | TraceFlag | RespFlag:      "check",
		OpCheckBatch | TraceFlag:            "check_batch",
		OpCheckBatch | TraceFlag | RespFlag: "check_batch",
		OpError:                             "error",
		OpPing:                              "ping",
	}
	for op, want := range cases {
		if got := OpName(op); got != want {
			t.Errorf("OpName(%#x) = %q, want %q", op, got, want)
		}
	}
}

// TestCheckTraced: CheckMany with a nonzero first Trace sends a
// TRACE-flagged frame whose id reaches the backend on the first
// request, for a check of one and for a batch; an old client's
// TRACE-flagged single CHECK frame is still served the same way.
func TestCheckTraced(t *testing.T) {
	tb := &tracedBackend{testBackend: newTestBackend()}
	_, addr := startTracedServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tid := [TraceIDSize]byte{0xAB, 1: 0xCD, 15: 0xEF}
	verdicts, err := cl.CheckMany([]CheckRequest{{Session: "s1", Operation: "read", Object: "doc", Trace: tid}})
	if err != nil || len(verdicts) != 1 || !verdicts[0] {
		t.Fatalf("traced CheckMany = (%v, %v), want ([true], nil)", verdicts, err)
	}
	// The single-CHECK form an older client sends: TraceFlag on OpCheck.
	payload := AppendCheck(AppendTraceID(nil, tid), "s1", "write", "doc")
	resp, err := cl.roundTrip(OpCheck|TraceFlag, payload)
	if err != nil || len(resp) != 1 || resp[0] != 0 {
		t.Fatalf("raw traced CHECK write = (%v, %v), want ([0], nil)", resp, err)
	}

	btid := [TraceIDSize]byte{7: 0x42}
	verdicts, err = cl.CheckMany([]CheckRequest{
		{Session: "s1", Operation: "read", Object: "a", Trace: btid},
		{Session: "s1", Operation: "write", Object: "b"},
	})
	if err != nil {
		t.Fatalf("traced CheckMany batch: %v", err)
	}
	if len(verdicts) != 2 || !verdicts[0] || verdicts[1] {
		t.Fatalf("verdicts = %v, want [true false]", verdicts)
	}

	seen := tb.seen()
	if len(seen) != 3 || seen[0] != tid || seen[1] != tid || seen[2] != btid {
		t.Fatalf("backend saw tids %v, want [%v %v %v]", seen, tid, tid, btid)
	}
}

// A backend that ignores CheckRequest.Trace must still answer
// TraceFlag requests as ordinary checks: the flag is additive, not a
// hard capability requirement.
func TestCheckTracedPlainBackendDegrades(t *testing.T) {
	tb := newTestBackend()
	_, addr := startServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	tid := [TraceIDSize]byte{1}
	resp, err := cl.roundTrip(OpCheck|TraceFlag, AppendCheck(AppendTraceID(nil, tid), "s1", "read", "doc"))
	if err != nil || len(resp) != 1 || resp[0] != 1 {
		t.Fatalf("raw traced CHECK on plain backend = (%v, %v), want ([1], nil)", resp, err)
	}
	verdicts, err := cl.CheckMany([]CheckRequest{
		{Session: "s1", Operation: "read", Object: "a", Trace: tid},
	})
	if err != nil || len(verdicts) != 1 || !verdicts[0] {
		t.Fatalf("traced CheckMany on plain backend = (%v, %v)", verdicts, err)
	}
}

// A truncated trace-id prefix must condemn only the frame, not the
// connection.
func TestTracedBadPrefixKeepsConn(t *testing.T) {
	tb := &tracedBackend{testBackend: newTestBackend()}
	_, addr := startTracedServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// Hand-roll a TraceFlag CHECK whose payload is shorter than a trace
	// id.
	if _, err := cl.roundTrip(OpCheck|TraceFlag, []byte{1, 2, 3}); err == nil {
		t.Fatal("short traced payload did not error")
	} else if _, ok := err.(*RemoteError); !ok {
		t.Fatalf("want *RemoteError, got %T: %v", err, err)
	}
	// The connection must still serve ordinary requests.
	if allowed, err := cl.Check("s1", "read", "doc"); err != nil || !allowed {
		t.Fatalf("Check after bad traced frame = (%v, %v)", allowed, err)
	}
}

// An empty TRACE-flagged CHECK_BATCH has no first request to carry the
// id: it answers an empty verdict list and the connection survives.
// Client.CheckMany returns early on an empty batch, so the frame is
// hand-rolled.
func TestEmptyTracedBatch(t *testing.T) {
	tb := &tracedBackend{testBackend: newTestBackend()}
	_, addr := startTracedServer(t, tb, nil)
	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	payload := AppendCheckBatch(AppendTraceID(nil, [TraceIDSize]byte{9}), nil)
	resp, err := cl.roundTrip(OpCheckBatch|TraceFlag, payload)
	if err != nil {
		t.Fatalf("empty traced CHECK_BATCH: %v", err)
	}
	verdicts, err := ConsumeVerdicts(resp, nil)
	if err != nil || len(verdicts) != 0 {
		t.Fatalf("verdicts = (%v, %v), want an empty list", verdicts, err)
	}
	if seen := tb.seen(); len(seen) != 0 {
		t.Fatalf("backend saw tids %v for an empty batch", seen)
	}
	if allowed, err := cl.Check("s1", "read", "doc"); err != nil || !allowed {
		t.Fatalf("Check after empty traced batch = (%v, %v)", allowed, err)
	}
}
