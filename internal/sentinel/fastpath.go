package sentinel

import (
	"encoding/binary"
	"maps"
	"sync"
	"sync/atomic"

	"activerbac/internal/allowcache"
)

// The decision fast path serves repeat ALLOW verdicts for cacheable
// enforcement events without re-running the rule cascade, from an
// allowcache.Table keyed by (event, user, session, operation, object),
// the event named by a one-byte ordinal.
// A verdict is served or stored only when the event is eligible (its
// sole non-retaining subscriber fires only CacheSafe rules and no
// outcome listener is registered, see Engine.cacheable), only under
// the epoch and session generation captured before its cascade ran
// (policy, rule and event-graph changes bump the epoch, session changes
// the session's generation), and only if it is an allow, so the Else
// branch (denial recording, audit) runs on every denied request.
//
// An entry never keeps the Decision its cascade voted on. It files a
// shared, immutable allow record instead: one Decision per (policy
// view, allow votes), interned in a copy-on-write map that only the
// store path reads. A hit returns that record, whose verdict and votes
// equal the cascade's, so the batch floor can recycle the working
// decisions (DESIGN §5.4, §5.6).

// FastPath is the decision cache and its counters. All methods are
// safe for concurrent use.
type FastPath struct {
	tab allowcache.Table[*Decision]

	// recs is the current view's allow-record intern table; recMu
	// serializes its copy-on-write replacement.
	recs  atomic.Pointer[allowRecords]
	recMu sync.Mutex

	// ords numbers the events the cache has keyed, copy-on-write; ordMu
	// serializes its replacement.
	ords  atomic.Pointer[map[string]byte]
	ordMu sync.Mutex

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
	// that could not use the cache: an uncacheable event, an event
	// past the 256 a key can name, an unencodable tuple, or a client
	// trace with tracing off. Decide
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

// allowRecords interns the allow records of one policy view, keyed by
// the votes' rule names, each prefixed by its length. The map is never
// written after the table is published.
type allowRecords struct {
	view uint64
	m    map[string]*Decision
}

// maxAllowRecords bounds one view's intern table; an allow with votes
// beyond it is filed under a record of its own.
const maxAllowRecords = 64

// allowRecord returns the record the verdict cache files for dec, a
// settled allow decided under view: an immutable Decision with dec's
// votes, shared by every allow of view that voted alike. key is scratch
// for the intern key; the grown buffer comes back for reuse. Only a
// record-table miss allocates.
func (f *FastPath) allowRecord(view uint64, dec *Decision, key []byte) (*Decision, []byte) {
	dec.mu.Lock()
	key = key[:0]
	for _, v := range dec.votes {
		key = binary.AppendUvarint(key, uint64(len(v.Rule)))
		key = append(key, v.Rule...)
	}
	result := dec.result
	dec.mu.Unlock()
	if r := f.recs.Load(); result == nil && r != nil && r.view == view {
		if rec, ok := r.m[string(key)]; ok { // no-alloc lookup
			return rec, key
		}
	}
	rec := dec.record(view)
	if result != nil {
		return rec, key // a payload is the decision's own: never shared
	}
	f.recMu.Lock()
	defer f.recMu.Unlock()
	r := f.recs.Load()
	switch {
	case r == nil || r.view < view:
		r = &allowRecords{view: view, m: make(map[string]*Decision, 1)}
	case r.view > view || len(r.m) >= maxAllowRecords:
		return rec, key // a superseded view, or a full table: unshared
	default:
		if shared, ok := r.m[string(key)]; ok {
			return shared, key
		}
		r = &allowRecords{view: view, m: maps.Clone(r.m)}
	}
	r.m[string(key)] = rec
	f.recs.Store(r)
	return rec, key
}

// maxEventOrdinals is how many events the one event byte of a key can
// name.
const maxEventOrdinals = 256

// ordinal returns the byte that names eventName in a cache key,
// numbering the event on its first use; numbers are never reused. An
// event past the first maxEventOrdinals gets none, and its checks
// bypass the cache. Only a first use takes the mutex.
func (f *FastPath) ordinal(eventName string) (byte, bool) {
	if m := f.ords.Load(); m != nil {
		if o, ok := (*m)[eventName]; ok {
			return o, true
		}
	}
	f.ordMu.Lock()
	defer f.ordMu.Unlock()
	var cur map[string]byte
	if p := f.ords.Load(); p != nil {
		cur = *p
	}
	if o, ok := cur[eventName]; ok {
		return o, true
	}
	if len(cur) >= maxEventOrdinals {
		return 0, false
	}
	m := make(map[string]byte, len(cur)+1)
	maps.Copy(m, cur)
	o := byte(len(cur))
	m[eventName] = o
	f.ords.Store(&m)
	return o, true
}
