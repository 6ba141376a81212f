package wire

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// streamBackend serves FuzzServerStream: checks on sessions beginning
// with "h" are verdict-cache hits answered on the reader, those
// beginning with "p" park in the worker for a moment (so later frames
// overtake them), and every other check allows reads.
type streamBackend struct{}

func (streamBackend) PolicyEpoch() uint64 { return 1 }
func (streamBackend) PushEpoch() uint64   { return 1 }

func (streamBackend) decide(r CheckRequest) bool {
	if strings.HasPrefix(r.Session, "p") {
		time.Sleep(time.Millisecond)
	}
	return r.Operation == "read"
}

func (b streamBackend) CheckBatch(reqs []CheckRequest, vs []bool) []bool {
	for _, r := range reqs {
		vs = append(vs, b.decide(r))
	}
	return vs
}

func (b streamBackend) CheckCacheable(session, operation, object string) (bool, bool) {
	allowed := b.decide(CheckRequest{Session: session, Operation: operation, Object: object})
	return allowed, allowed
}

func (streamBackend) CheckHit(req *CheckRequest) bool { return strings.HasPrefix(req.Session, "h") }

// pipeListener accepts the server ends of net.Pipe connections.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// FuzzServerStream sends arbitrary bytes down one live server
// connection, against a backend that answers some checks on the reader
// and parks or answers the rest on the workers, then shuts the server
// down. Nothing may panic, every response must answer a request the
// stream carried (an id answered no more often than it was sent), and
// every goroutine must be gone after the close. The seeds in
// testdata/fuzz/FuzzServerStream cover hit bursts, hits behind parked
// misses and behind a full in-flight window, traced and CACHE-flagged
// checks, batches, and streams cut short or turning to garbage.
func FuzzServerStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFrame = 1 << 12
		requested := map[uint32]int{}
		dec := NewDecoder(bytes.NewReader(data), maxFrame)
		for {
			fr, err := dec.Next()
			if err != nil {
				break
			}
			requested[fr.ID]++
		}

		baseline := runtime.NumGoroutine()
		srv := NewServer(streamBackend{}, &ServerOptions{
			MaxFrame: maxFrame, MaxInFlight: 4, Workers: 2,
			ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second,
		})
		ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln)
		}()
		cli, srvEnd := net.Pipe()
		ln.conns <- srvEnd

		answered := map[uint32]int{}
		readDone := make(chan struct{})
		go func() {
			defer close(readDone)
			rd := NewDecoder(bufio.NewReader(cli), 0)
			for {
				fr, err := rd.Next()
				if err != nil {
					return
				}
				answered[fr.ID]++
			}
		}()
		cli.SetWriteDeadline(time.Now().Add(5 * time.Second))
		cli.Write(data) // fails once the server drops a stream it cannot decode

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := srv.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		<-served
		cli.Close()
		<-readDone
		for id, n := range answered {
			if n > requested[id] {
				t.Fatalf("id %d answered %d times, requested %d", id, n, requested[id])
			}
		}
		waitGoroutines(t, baseline, "after close")
	})
}
