package main

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"activerbac"
	"activerbac/internal/wire"
)

// inlineFixture is a wire server over rbacd's backend adapter, and a
// session whose write po.dat allow is in the verdict cache. sample > 0
// adds a trace ring sampling at that rate.
func inlineFixture(t *testing.T, sample float64) (*activerbac.System, *server, *wire.Client, string) {
	t.Helper()
	opts := &activerbac.Options{}
	if sample > 0 {
		opts.TraceBuffer, opts.TraceSample = 16, sample
	}
	// testPolicy's threshold monitor listens to every outcome, which
	// makes every check uncacheable; the verdict cache needs it gone.
	sys, err := activerbac.Open(strings.Replace(testPolicy, "threshold burst 3 in 10m: lock-user\n", "", 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	sid, err := sys.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddActiveRole("bob", sid, "PC"); err != nil {
		t.Fatal(err)
	}
	for i := 0; sys.FastPathStats().Misses == 0; i++ {
		if i == 100 {
			t.Fatal("the check never reached the verdict cache")
		}
		sys.CheckAccessTuple(string(sid), "write", "po.dat") // an untraced miss stores the allow
	}
	srv := &server{sys: sys, analyzeMode: "off"}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wireSrv := wire.NewServer(wireBackend{srv}, &wire.ServerOptions{Instruments: wireInstruments(sys)})
	go wireSrv.Serve(ln)
	t.Cleanup(func() { wireSrv.Close() })
	wc, err := wire.Dial(ln.Addr().String(), &wire.ClientOptions{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	return sys, srv, wc, string(sid)
}

// TestWireHitsSampledOnce: at trace sample rate r the traced share of
// N wire CHECKs on a cached allow stays within binomial bounds of r,
// for plain and CACHE-flagged frames alike — the sampler is drawn once
// per check, on the reader. A CACHE-flagged check the sampler picked is
// answered allowed but not cacheable, and only such a check is.
func TestWireHitsSampledOnce(t *testing.T) {
	const (
		n = 1000
		r = 0.25
	)
	sys, _, wc, sid := inlineFixture(t, r)
	o := sys.Observer()
	mean, sd := n*r, math.Sqrt(n*r*(1-r))
	within := func(what string, traced float64) {
		t.Helper()
		if math.Abs(traced-mean) > 6*sd {
			t.Fatalf("%s: %v of %d hits traced at rate %v, want %.0f ± %.0f", what, traced, n, r, mean, 6*sd)
		}
	}

	before := o.TracesTotal.Value()
	for i := 0; i < n; i++ {
		ok, err := wc.Check(sid, "write", "po.dat")
		if err != nil || !ok {
			t.Fatalf("Check = (%v, %v)", ok, err)
		}
	}
	within("CHECK", o.TracesTotal.Value()-before)

	before = o.TracesTotal.Value()
	uncacheable := 0
	for i := 0; i < n; i++ {
		ok, cacheable, err := wc.CheckCacheable(sid, "write", "po.dat")
		if err != nil || !ok {
			t.Fatalf("CheckCacheable = (%v, %v)", ok, err)
		}
		if !cacheable {
			uncacheable++
		}
	}
	traced := o.TracesTotal.Value() - before
	within("CACHE-flagged CHECK", traced)
	if float64(uncacheable) != traced {
		t.Fatalf("%d allows answered uncacheable, %v traced", uncacheable, traced)
	}
	if w, req := o.WireWrites.Value(), o.WireRequests.With("check").Value(); w == 0 || w > req {
		t.Fatalf("wire_writes_total = %v for %v check frames", w, req)
	}
}

// TestWireCheckHitYieldsToPolicySwap: while a policy swap holds the
// server mutex, the adapter reports a miss instead of waiting for the
// lock on the reader; the check then goes to a worker, which waits.
func TestWireCheckHitYieldsToPolicySwap(t *testing.T) {
	_, srv, _, sid := inlineFixture(t, 0)
	b := wireBackend{srv}
	req := wire.CheckRequest{Session: sid, Operation: "write", Object: "po.dat"}
	srv.mu.Lock()
	hit := b.CheckHit(&req)
	srv.mu.Unlock()
	if hit {
		t.Fatal("CheckHit answered while the server mutex was held")
	}
	if req.Trace != ([wire.TraceIDSize]byte{}) {
		t.Fatal("a yielded check came back with a trace stamp")
	}
	if !b.CheckHit(&req) {
		t.Fatal("CheckHit missed a cached allow once the mutex was free")
	}
}
