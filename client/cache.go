// Package client is the embeddable decision cache: a wire-protocol
// client that serves repeat ALLOW verdicts locally, deleting the
// network round trip for read-heavy enforcement points.
//
// Cache runs the engine's born-stale epoch discipline (DESIGN §5.4)
// across the network, on the bounded allowcache table the in-process
// fast path uses. Every entry is filed under the table epoch captured
// before its remote check was issued, and every epoch push from the
// server (wire EPOCH_PUSH) that moves the epoch bumps the table epoch,
// retiring the whole cache the moment any policy-, session-, detector-
// or rule-grade change lands. Only allows the server marks cacheable
// are stored — the fast path's pure-snapshot classification — so
// denials always re-ask, keeping the active-security denial monitors
// fed; tuples with a field over 255 bytes always go remote.
//
// Safety does not degrade when the subscription drops: the cache stops
// serving entirely (every check goes remote), bumps the table epoch — a
// restarted server may reuse old push epoch numbers — and a background
// loop polls POLICY_VERSION for liveness and re-subscribes; local
// serving resumes only once pushes flow again.
package client

import (
	"sync"
	"sync/atomic"
	"time"

	"activerbac/internal/allowcache"
	"activerbac/internal/wire"
)

// Options tunes a Cache; the zero value selects the defaults.
type Options struct {
	// Conns is the wire connection-pool size. Default 1.
	Conns int
	// MaxFrame bounds one received frame. Default wire.DefaultMaxFrame.
	MaxFrame int
	// Timeout bounds dialing and each remote round trip. Default 10s.
	Timeout time.Duration
	// PollInterval paces the fallback loop that, while the subscription
	// is down, polls POLICY_VERSION for liveness and retries SUBSCRIBE.
	// Default 1s.
	PollInterval time.Duration
	// Instruments hooks cache metrics; nil disables. The callbacks run
	// on check and push paths and must be cheap.
	Instruments *Instruments
}

// Instruments are optional metric hooks; any field may be nil.
type Instruments struct {
	// Hit is called once per check served from the local cache.
	Hit func()
	// Miss is called once per check that went to the server (including
	// all checks while the subscription is down).
	Miss func()
	// Invalidation is called once per wholesale invalidation: every
	// epoch push and every subscription loss.
	Invalidation func()
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = time.Second
	}
	return o
}

// Stats is a snapshot of a Cache's counters.
type Stats struct {
	// Hits counts checks served locally; Misses counts checks that went
	// to the server.
	Hits, Misses uint64
	// Invalidations counts wholesale drops: epoch pushes and
	// subscription losses.
	Invalidations uint64
}

// Cache is a wire client with an embedded epoch-tagged verdict cache.
// All methods are safe for concurrent use.
type Cache struct {
	cl   *wire.Client
	opts Options

	// epoch is the local view of the server's push epoch; active gates
	// local serving on a live subscription. Both are written only under
	// mu, as are the bumps of tab's epoch: one per push that moves
	// epoch and one per activation change.
	mu     sync.Mutex
	epoch  atomic.Uint64
	active atomic.Bool
	tab    allowcache.Table[struct{}]

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64

	lost   chan struct{} // coalescing resubscribe-now signal
	closed chan struct{}
	once   sync.Once
}

// New dials addr and returns a Cache wrapping the connection pool. It
// subscribes eagerly; if the subscription cannot be established (the
// server predates epoch push, or the subscriber cap is reached) the
// Cache still works — every check goes remote — and keeps retrying in
// the background.
func New(addr string, opts *Options) (*Cache, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	c := &Cache{
		opts:   o.withDefaults(),
		lost:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	cl, err := wire.Dial(addr, &wire.ClientOptions{
		Conns:              o.Conns,
		MaxFrame:           o.MaxFrame,
		Timeout:            c.opts.Timeout,
		OnEpochPush:        c.onPush,
		OnSubscriptionLost: c.onLost,
	})
	if err != nil {
		return nil, err
	}
	c.cl = cl
	if epoch, err := cl.Subscribe(); err == nil {
		c.activate(epoch)
	}
	go c.maintain()
	return c, nil
}

// Check decides one access check, serving repeat allows locally while
// the subscription is live. Denials, non-cacheable verdicts and every
// check while unsubscribed go to the server.
func (c *Cache) Check(session, operation, object string) (bool, error) {
	// Born-stale: capture the table epoch before reading active. A push
	// or an activation change that lands after the capture bumps the
	// table epoch, so whatever this check stores is already retired.
	epoch := c.tab.Epoch()
	if !c.active.Load() {
		c.miss()
		return c.cl.Check(session, operation, object)
	}
	var buf [128]byte
	key, fits := allowcache.AppendKey(buf[:0], session, operation, object)
	h := allowcache.Hash(key)
	g := c.tab.Session(session)
	if _, hit := c.tab.Lookup(key, h, epoch, g); fits && hit {
		c.hits.Add(1)
		if ins := c.opts.Instruments; ins != nil && ins.Hit != nil {
			ins.Hit()
		}
		return true, nil // allow-only: a stored entry is an allow
	}
	c.miss()
	allowed, cacheable, err := c.cl.CheckCacheable(session, operation, object)
	if err != nil {
		return false, err
	}
	if allowed && cacheable && fits {
		c.tab.Store(key, h, struct{}{}, epoch, g)
	}
	return allowed, nil
}

func (c *Cache) miss() {
	c.misses.Add(1)
	if ins := c.opts.Instruments; ins != nil && ins.Miss != nil {
		ins.Miss()
	}
}

// Epoch reports the local view of the server's push epoch.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// Subscribed reports whether the cache currently serves locally (a
// live epoch-push subscription backs it).
func (c *Cache) Subscribed() bool { return c.active.Load() }

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// Client exposes the underlying wire client for calls the cache does
// not mediate (batches, pings, traced checks).
func (c *Cache) Client() *wire.Client { return c.cl }

// Close stops the background loop and closes the connection pool.
func (c *Cache) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.cl.Close()
}

// onPush is the wire client's epoch-push callback: one table epoch
// bump retires every entry stored before it.
func (c *Cache) onPush(epoch uint64) {
	c.mu.Lock()
	if c.epoch.Load() != epoch {
		c.epoch.Store(epoch)
		c.tab.Invalidate()
		c.invalidated()
	}
	c.mu.Unlock()
}

// onLost is the wire client's subscription-loss callback: local
// serving stops immediately — pushes may already have been missed —
// and the maintenance loop takes over.
func (c *Cache) onLost() {
	c.deactivate()
	select {
	case c.lost <- struct{}{}:
	default:
	}
}

// activate installs a fresh subscription: retire every entry (a
// restarted server may reuse epoch numbers), then serve locally at the
// subscribed epoch. A push that raced this and landed first is not
// lost: any verdict cached afterwards was computed after its bump.
func (c *Cache) activate(epoch uint64) {
	c.mu.Lock()
	c.tab.Invalidate()
	c.epoch.Store(epoch)
	c.active.Store(true)
	c.mu.Unlock()
}

// deactivate stops local serving, then retires the entries. In that
// order, a check that captured the bumped table epoch reads active as
// false and never touches the table.
func (c *Cache) deactivate() {
	c.mu.Lock()
	if c.active.Load() {
		c.active.Store(false)
		c.invalidated()
	}
	c.tab.Invalidate()
	c.mu.Unlock()
}

func (c *Cache) invalidated() {
	c.invalidations.Add(1)
	if ins := c.opts.Instruments; ins != nil && ins.Invalidation != nil {
		ins.Invalidation()
	}
}

// maintain is the fallback loop: while the subscription is down it
// polls POLICY_VERSION (liveness — is the server back?) and retries
// SUBSCRIBE each PollInterval, resuming local serving on success.
func (c *Cache) maintain() {
	t := time.NewTicker(c.opts.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-c.lost:
		case <-t.C:
		}
		if c.active.Load() {
			continue
		}
		if _, err := c.cl.PolicyVersion(); err != nil {
			continue
		}
		epoch, err := c.cl.Subscribe()
		if err != nil {
			continue
		}
		c.activate(epoch)
	}
}
