package sentinel

import (
	"sync/atomic"

	"activerbac/internal/allowcache"
)

// The decision fast path serves repeat ALLOW verdicts for cacheable
// enforcement events without re-running the rule cascade, from an
// allowcache.Table keyed by (event, user, session, operation, object).
// A verdict is served or stored only when the event is eligible (its
// sole non-retaining subscriber fires only CacheSafe rules and no
// outcome listener is registered, see Engine.cacheable), only under
// the epoch and session generation captured before its cascade ran
// (policy, rule and event-graph changes bump the epoch, session changes
// the session's generation), and only if it is an allow, so the Else
// branch (denial recording, audit) runs on every denied request.

// FastPath is the decision cache and its counters. All methods are
// safe for concurrent use.
type FastPath struct {
	tab allowcache.Table[*Decision]

	hits          atomic.Uint64
	misses        atomic.Uint64
	bypass        atomic.Uint64
	invalidations atomic.Uint64
}

// FastPathStats is a point-in-time snapshot of the cache counters.
type FastPathStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Bypass counts access checks (DecideCheck, DecideCheckBatch)
	// that could not use the cache: an uncacheable event, an
	// unencodable tuple, or a client trace with tracing off. Decide
	// never touches the cache, so administrative decisions are not
	// counted.
	Bypass        uint64 `json:"bypass"`
	Invalidations uint64 `json:"invalidations"`
	Epoch         uint64 `json:"epoch"`
}

// Stats snapshots the counters.
func (f *FastPath) Stats() FastPathStats {
	return FastPathStats{
		Hits:          f.hits.Load(),
		Misses:        f.misses.Load(),
		Bypass:        f.bypass.Load(),
		Invalidations: f.invalidations.Load(),
		Epoch:         f.tab.Epoch(),
	}
}

// Invalidate drops every cached verdict by bumping the epoch.
func (f *FastPath) Invalidate() {
	f.tab.Invalidate()
	f.invalidations.Add(1)
}

// InvalidateSession drops cached verdicts for one session by bumping
// its generation slot.
func (f *FastPath) InvalidateSession(sid string) {
	f.tab.InvalidateSession(sid)
	f.invalidations.Add(1)
}
