package wire

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// writeCountingListener hands out connections that count their socket
// writes.
type writeCountingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCountingConn{c, l.writes}, nil
}

type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestInlineHitsShareOneWrite: k verdict-cache hits that arrive in one
// client write are answered by the reader and leave the server in one
// socket write, counted both on the wrapped connection and by the
// Write instrument. Plain CHECKs answer {allow}, CACHE-flagged ones
// {allow, cacheable}, and none reaches a worker.
func TestInlineHitsShareOneWrite(t *testing.T) {
	const k = 32
	pb := newPushTestBackend()
	var socketWrites, instrumented, requests atomic.Int64
	ins := &Instruments{
		Write:   func() { instrumented.Add(1) },
		Request: func(string) { requests.Add(1) },
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(pb, &ServerOptions{Instruments: ins})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(writeCountingListener{ln, &socketWrites})
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var buf []byte
	for id := uint32(0); id < k; id++ {
		op := OpCheck
		if id%2 == 1 {
			op |= CacheFlag
		}
		buf = AppendFrame(buf, op, id, AppendCheck(nil, "hot", "read", "doc"))
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	dec := NewDecoder(bufio.NewReader(nc), 0)
	seen := map[uint32]bool{}
	for len(seen) < k {
		f, err := dec.Next()
		if err != nil {
			t.Fatalf("after %d responses: %v", len(seen), err)
		}
		if seen[f.ID] {
			t.Fatalf("id %d answered twice", f.ID)
		}
		seen[f.ID] = true
		want := []byte{1}
		if f.ID%2 == 1 {
			want = []byte{cacheVerdictAllow | cacheVerdictCacheable}
		}
		if f.Op&^CacheFlag != OpCheck|RespFlag || string(f.Payload) != string(want) {
			t.Fatalf("id %d: response op %#x payload %v, want payload %v", f.ID, f.Op, f.Payload, want)
		}
	}
	if n := pb.parked.Load(); n != 0 {
		t.Fatalf("%d hits reached the backend's check path", n)
	}
	if n := pb.hits.Load(); n != k {
		t.Fatalf("backend hits = %d, want %d", n, k)
	}
	if n := requests.Load(); n != k {
		t.Fatalf("requests counted = %d, want %d", n, k)
	}
	if n := socketWrites.Load(); n != 1 {
		t.Fatalf("%d frames took %d socket writes, want 1", k, n)
	}
	if n := instrumented.Load(); n != 1 {
		t.Fatalf("Write instrument counted %d writes, want 1", n)
	}
}

// waitGoroutines polls until the goroutine count is back to at most
// baseline.
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, baseline %d\n%s",
				what, runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientWriterExits: the per-connection writer goroutine — and the
// reader beside it — are gone after Close, and after the server drops
// the connection, with queued writes exercised before each.
func TestClientWriterExits(t *testing.T) {
	tb := newTestBackend()
	srv, addr := startServer(t, tb, nil)
	baseline := runtime.NumGoroutine()
	burst := func(cl *Client) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if _, err := cl.Check("s", "read", "o"); err != nil {
						t.Errorf("Check: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	cl, err := Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	burst(cl)
	cl.Close()
	waitGoroutines(t, baseline, "after Close")

	cl, err = Dial(addr, &ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	burst(cl)
	srv.Close()
	waitGoroutines(t, baseline, "after the server dropped the connection")
}

// failAfterConn fails every Write after the first ok ones.
type failAfterConn struct {
	net.Conn
	ok atomic.Int32
}

func (c *failAfterConn) Write(p []byte) (int, error) {
	if c.ok.Add(-1) < 0 {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestClientQueuedWriteErrorWakesWaiters: a write error on the queued
// path fails the connection and wakes every waiter promptly, not at
// its timeout. The first check is alone in flight and written by its
// caller; it parks in the backend, so every later one is queued for
// the writer goroutine, whose write fails.
func TestClientQueuedWriteErrorWakesWaiters(t *testing.T) {
	tb := newTestBackend()
	defer close(tb.release)
	_, addr := startServer(t, tb, nil)
	const timeout = 30 * time.Second
	cl, err := Dial(addr, &ClientOptions{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var dials atomic.Int32
	cl.dial = func() (net.Conn, error) {
		if dials.Add(1) > 1 {
			return nil, errors.New("no redial: the test watches one connection")
		}
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		fc := &failAfterConn{Conn: nc}
		fc.ok.Store(1)
		return fc, nil
	}
	// Kill the eager connection so the next request dials one whose
	// writes fail on demand.
	slot := cl.slots[0]
	slot.mu.Lock()
	slot.cc.fail(errors.New("test: drop"))
	slot.mu.Unlock()

	start := time.Now()
	errs := make(chan error, 9)
	go func() {
		_, err := cl.Check("blocked", "read", "o")
		errs <- err
	}()
	for tb.parked.Load() == 0 {
		if time.Since(start) > 5*time.Second {
			t.Fatal("first check never reached the backend")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		go func() {
			_, err := cl.Check("s", "read", "o")
			errs <- err
		}()
	}
	for i := 0; i < 9; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a check succeeded on a connection whose write failed")
		}
	}
	if d := time.Since(start); d > timeout/2 {
		t.Fatalf("waiters woke after %v, not on the write error", d)
	}
}
