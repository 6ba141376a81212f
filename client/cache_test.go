package client

import (
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activerbac/internal/allowcache"
	"activerbac/internal/wire"
)

// cacheTestBackend allows operation "read" and classifies everything
// cacheable except object "volatile". Every backend decision is
// counted, so tests can prove which checks were served locally.
type cacheTestBackend struct {
	epoch  atomic.Uint64
	checks atomic.Int64
}

func (b *cacheTestBackend) Check(session, operation, object string) bool {
	b.checks.Add(1)
	return operation == "read"
}

func (b *cacheTestBackend) PolicyEpoch() uint64 { return b.epoch.Load() }
func (b *cacheTestBackend) PushEpoch() uint64   { return b.epoch.Load() }

func (b *cacheTestBackend) CheckBatch(reqs []wire.CheckRequest, vs []bool) []bool {
	for _, r := range reqs {
		vs = append(vs, b.Check(r.Session, r.Operation, r.Object))
	}
	return vs
}

func (b *cacheTestBackend) CheckCacheable(session, operation, object string) (allowed, cacheable bool) {
	allowed = b.Check(session, operation, object)
	return allowed, allowed && object != "volatile"
}

// startServer serves a wire server for b on a fresh loopback listener;
// the returned stop closes it (also registered as cleanup).
func startServer(t *testing.T, b wire.Backend, addr string) (*wire.Server, string, func()) {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := wire.NewServer(b, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != wire.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()
	var once atomic.Bool
	stop := func() {
		if once.CompareAndSwap(false, true) {
			srv.Close()
			<-done
		}
	}
	t.Cleanup(stop)
	return srv, ln.Addr().String(), stop
}

func TestCacheHitMiss(t *testing.T) {
	b := &cacheTestBackend{}
	b.epoch.Store(1)
	_, addr, _ := startServer(t, b, "")
	var hits, misses atomic.Int64
	c, err := New(addr, &Options{
		Timeout: 5 * time.Second,
		Instruments: &Instruments{
			Hit:  func() { hits.Add(1) },
			Miss: func() { misses.Add(1) },
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if !c.Subscribed() {
		t.Fatal("cache did not subscribe eagerly")
	}

	// First check misses and seeds the cache; the repeat is served
	// locally — the backend sees exactly one decision.
	for i := 0; i < 3; i++ {
		allowed, err := c.Check("s1", "read", "doc")
		if err != nil || !allowed {
			t.Fatalf("check %d = (%v, %v), want (true, nil)", i, allowed, err)
		}
	}
	if n := b.checks.Load(); n != 1 {
		t.Fatalf("backend decisions = %d, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", st)
	}
	if hits.Load() != 2 || misses.Load() != 1 {
		t.Fatalf("instruments = %d hits / %d misses, want 2 / 1", hits.Load(), misses.Load())
	}

	// Denials are never cached: every repeat goes remote.
	before := b.checks.Load()
	for i := 0; i < 2; i++ {
		allowed, err := c.Check("s1", "write", "doc")
		if err != nil || allowed {
			t.Fatalf("deny check = (%v, %v), want (false, nil)", allowed, err)
		}
	}
	if n := b.checks.Load() - before; n != 2 {
		t.Fatalf("backend decisions for denials = %d, want 2", n)
	}

	// Allowed-but-uncacheable verdicts are never cached either.
	before = b.checks.Load()
	for i := 0; i < 2; i++ {
		allowed, err := c.Check("s1", "read", "volatile")
		if err != nil || !allowed {
			t.Fatalf("volatile check = (%v, %v), want (true, nil)", allowed, err)
		}
	}
	if n := b.checks.Load() - before; n != 2 {
		t.Fatalf("backend decisions for uncacheable allows = %d, want 2", n)
	}
}

func TestCachePushInvalidates(t *testing.T) {
	b := &cacheTestBackend{}
	b.epoch.Store(1)
	srv, addr, _ := startServer(t, b, "")
	c, err := New(addr, &Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()

	if _, err := c.Check("s1", "read", "doc"); err != nil {
		t.Fatalf("seed check: %v", err)
	}
	if _, err := c.Check("s1", "read", "doc"); err != nil {
		t.Fatalf("repeat check: %v", err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("stats before push = %+v, want 1 hit", st)
	}

	// A policy change bumps the epoch and pushes: once the push arrives,
	// the cached allow must not be served again.
	b.epoch.Store(2)
	srv.NotifyEpoch(2)
	for i := 0; c.Epoch() != 2; i++ {
		if i > 5000 {
			t.Fatal("push never reached the cache")
		}
		time.Sleep(time.Millisecond)
	}
	before := b.checks.Load()
	if _, err := c.Check("s1", "read", "doc"); err != nil {
		t.Fatalf("check after push: %v", err)
	}
	if n := b.checks.Load() - before; n != 1 {
		t.Fatalf("backend decisions after push = %d, want 1 (entry must be retired)", n)
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

// TestCacheLossAndResubscribe: when the server goes away the cache
// stops serving locally; once the server is back, the maintenance loop
// re-subscribes and local serving resumes with a dropped cache.
func TestCacheLossAndResubscribe(t *testing.T) {
	b := &cacheTestBackend{}
	b.epoch.Store(1)
	_, addr, stop := startServer(t, b, "")
	c, err := New(addr, &Options{Timeout: 2 * time.Second, PollInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if _, err := c.Check("s1", "read", "doc"); err != nil {
		t.Fatalf("seed check: %v", err)
	}

	stop()
	for i := 0; c.Subscribed(); i++ {
		if i > 5000 {
			t.Fatal("subscription loss never observed")
		}
		time.Sleep(time.Millisecond)
	}
	if st := c.Stats(); st.Invalidations == 0 {
		t.Fatal("loss did not count an invalidation")
	}

	// Same address, new server, new epoch (a restart may even reuse old
	// epoch numbers — the cache must have dropped everything regardless).
	b2 := &cacheTestBackend{}
	b2.epoch.Store(1)
	startServer(t, b2, addr)
	for i := 0; !c.Subscribed(); i++ {
		if i > 10000 {
			t.Fatal("cache never re-subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	// The pre-loss entry must not be served against the new server.
	before := b2.checks.Load()
	allowed, err := c.Check("s1", "read", "doc")
	if err != nil || !allowed {
		t.Fatalf("check after resubscribe = (%v, %v), want (true, nil)", allowed, err)
	}
	if n := b2.checks.Load() - before; n != 1 {
		t.Fatalf("backend decisions after resubscribe = %d, want 1 (old entries must be dropped)", n)
	}
}

// TestCachePassthroughWithoutPush: against a server whose backend does
// not push epochs, the cache degrades to a plain remote client — every
// check goes to the server, nothing is ever served stale.
func TestCachePassthroughWithoutPush(t *testing.T) {
	type plainBackend struct{ cacheTestBackend }
	// Only promote the Backend methods: wrap so the Push/Cache upgrades are
	// not visible to the server's interface assertions.
	b := &plainBackend{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := wire.NewServer(struct {
		wire.Backend
	}{&b.cacheTestBackend}, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != wire.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})

	c, err := New(ln.Addr().String(), &Options{Timeout: 5 * time.Second, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if c.Subscribed() {
		t.Fatal("subscribed against a push-less backend")
	}
	for i := 0; i < 3; i++ {
		allowed, err := c.Check("s1", "read", "doc")
		if err != nil || !allowed {
			t.Fatalf("check = (%v, %v), want (true, nil)", allowed, err)
		}
	}
	if n := b.checks.Load(); n != 3 {
		t.Fatalf("backend decisions = %d, want 3 (no local serving without a subscription)", n)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 0 hits / 3 misses", st)
	}
}

// pushOnlyBackend pushes epochs but does not classify verdict
// cacheability, so it is not a wire.PushBackend.
type pushOnlyBackend struct{ wire.Backend }

func (b pushOnlyBackend) PushEpoch() uint64 { return b.PolicyEpoch() }

// TestCachePushOnlyBackend: against a backend that pushes epochs but
// cannot say which verdicts are cacheable, the cache degrades to a plain
// remote client instead of failing every check.
func TestCachePushOnlyBackend(t *testing.T) {
	b := &cacheTestBackend{}
	b.epoch.Store(1)
	_, addr, _ := startServer(t, pushOnlyBackend{b}, "")
	c, err := New(addr, &Options{Timeout: 5 * time.Second, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		allowed, err := c.Check("s1", "read", "doc")
		if err != nil || !allowed {
			t.Fatalf("check %d = (%v, %v), want (true, nil)", i, allowed, err)
		}
	}
	if n := b.checks.Load(); n != 3 {
		t.Fatalf("backend decisions = %d, want 3 (nothing cacheable without a classification)", n)
	}
}

// TestCacheBoundedUnderChurn: allows stored under epochs that pushes
// have retired are evicted, so the cache stays within the table's
// capacity however many distinct allows it has seen.
func TestCacheBoundedUnderChurn(t *testing.T) {
	const rounds, perRound, workers = 200, 1000, 4
	b := &cacheTestBackend{}
	b.epoch.Store(1)
	srv, addr, _ := startServer(t, b, "")
	c, err := New(addr, &Options{Conns: workers, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	for r := 0; r < rounds; r++ {
		session := "s" + strconv.Itoa(r)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < perRound; i += workers {
					if allowed, err := c.Check(session, "read", "doc-"+strconv.Itoa(i)); err != nil || !allowed {
						t.Errorf("round %d check %d = (%v, %v), want (true, nil)", r, i, allowed, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		epoch := uint64(r + 2)
		b.epoch.Store(epoch)
		srv.NotifyEpoch(epoch)
		waitFor(t, "push", func() bool { return c.Epoch() == epoch })
	}
	if got := c.tab.Len(); got > allowcache.Capacity {
		t.Fatalf("cache holds %d entries after %d distinct allows, want <= %d", got, rounds*perRound, allowcache.Capacity)
	}
	if st := c.Stats(); st.Misses != rounds*perRound || st.Invalidations != rounds {
		t.Fatalf("stats = %+v, want %d misses and %d invalidations", st, rounds*perRound, rounds)
	}
}

// TestCacheHitZeroAlloc: serving a repeat allow locally allocates
// nothing.
func TestCacheHitZeroAlloc(t *testing.T) {
	b := &cacheTestBackend{}
	b.epoch.Store(1)
	_, addr, _ := startServer(t, b, "")
	c, err := New(addr, &Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if allowed, err := c.Check("s1", "read", "doc"); err != nil || !allowed {
		t.Fatalf("seed check = (%v, %v), want (true, nil)", allowed, err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if allowed, err := c.Check("s1", "read", "doc"); err != nil || !allowed {
			t.Fatalf("repeat check = (%v, %v), want (true, nil)", allowed, err)
		}
	})
	if n := b.checks.Load(); n != 1 {
		t.Fatalf("backend decisions = %d, want 1 (repeats must hit)", n)
	}
	if allocs != 0 {
		t.Fatalf("cache hit allocates %v times per check, want 0", allocs)
	}
}

// gatedBackend holds every CheckCacheable until release is closed,
// signalling entered as each one arrives.
type gatedBackend struct {
	*cacheTestBackend
	entered chan struct{}
	release chan struct{}
}

func (b *gatedBackend) CheckCacheable(session, operation, object string) (allowed, cacheable bool) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return b.cacheTestBackend.CheckCacheable(session, operation, object)
}

// TestCacheStraddlingCheckNotStored: an allow whose remote check was in
// flight when the cache's view of the server moved — a push landed, or
// the subscription was lost and re-established at the same push epoch
// number, as after a server restart — is not served afterwards. The
// subscription loss is injected through the wire client's loss
// callback: a real restart would also close the connection carrying the
// held check, which then could not straddle it.
func TestCacheStraddlingCheckNotStored(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cross func(t *testing.T, srv *wire.Server, b *cacheTestBackend, c *Cache)
	}{
		{"push", func(t *testing.T, srv *wire.Server, b *cacheTestBackend, c *Cache) {
			b.epoch.Store(2)
			srv.NotifyEpoch(2)
			waitFor(t, "push", func() bool { return c.Epoch() == 2 })
		}},
		{"resubscribe", func(t *testing.T, _ *wire.Server, _ *cacheTestBackend, c *Cache) {
			c.onLost()
			waitFor(t, "resubscribe", c.Subscribed)
			if c.Epoch() != 1 {
				t.Fatalf("resubscribed at epoch %d, want the same number 1", c.Epoch())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := &gatedBackend{&cacheTestBackend{}, make(chan struct{}, 1), make(chan struct{})}
			b.epoch.Store(1)
			srv, addr, _ := startServer(t, b, "")
			c, err := New(addr, &Options{Timeout: 5 * time.Second, PollInterval: 10 * time.Millisecond})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer c.Close()
			type result struct {
				allowed bool
				err     error
			}
			done := make(chan result, 1)
			go func() {
				allowed, err := c.Check("s1", "read", "doc")
				done <- result{allowed, err}
			}()
			<-b.entered
			tc.cross(t, srv, b.cacheTestBackend, c)
			close(b.release)
			if r := <-done; r.err != nil || !r.allowed {
				t.Fatalf("straddling check = (%v, %v), want (true, nil)", r.allowed, r.err)
			}
			for i, want := range []int64{2, 2} { // remote and stored, then a hit
				if allowed, err := c.Check("s1", "read", "doc"); err != nil || !allowed {
					t.Fatalf("check %d = (%v, %v), want (true, nil)", i, allowed, err)
				}
				if n := b.checks.Load(); n != want {
					t.Fatalf("after check %d: backend decisions = %d, want %d", i, n, want)
				}
			}
		})
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i > 10000 {
			t.Fatalf("%s never observed", what)
		}
		time.Sleep(time.Millisecond)
	}
}
