package sentinel

import (
	"sync"
	"sync/atomic"
)

// The decision fast path serves repeat ALLOW verdicts for cacheable
// enforcement events without re-running the rule cascade. It is a
// bounded, sharded, set-associative table from the request tuple
// (event, user, session, operation, object) to the settled *Decision.
//
// Correctness rests on three guards, all enforced by the engine before
// a verdict is served or stored:
//
//   - eligibility: the event must have exactly one scope-marked
//     subscriber in the detector (no composite parents, no escalation)
//     and every enabled rule on it must be CacheSafe with no outcome
//     listeners registered — see Engine.cacheable;
//   - epoch tagging: a verdict is filed under the fast-path epoch and
//     the session's generation as observed BEFORE the cascade ran. Any
//     policy/rule/event-graph change bumps the epoch, any session
//     change bumps the session generation, so a mutation that
//     interleaves with a cascade always lands after the capture and
//     the stored entry is born stale;
//   - allow-only: denials are never cached, so the Else branch (denial
//     recording, audit) runs on every denied request.
//
// Sessions hash into a fixed array of generation slots; two sessions
// sharing a slot merely over-invalidate each other, never under.
//
// Layout. A key hashes to one of fpShards tables and, inside the
// table's current segment, to one fpWays-slot bucket. Every slot is an
// atomically published pointer to an immutable entry, so a probe is
// lock-free and allocation-free (at most fpWays full-key compares) and
// an insert is O(1) however full the cache is — on a cold workload
// every decision is a miss and an insert, so the insert must cost what
// a probe costs. Inserts serialize on the table's mutex and pick, in
// order: the slot already holding the key, an empty slot, a slot whose
// session generation has moved on (a dead entry), a doubled segment
// when the table is below fpSegMax, and otherwise one victim chosen by
// the key's hash. Segments start at fpSegMin slots on a table's first
// insert and double up to fpSegMax, so a small working set costs a
// small table and the cache as a whole never holds more than
// fpShards × fpSegMax = 131 072 verdicts. A segment carries the epoch
// it was built under; the first insert after an epoch bump swaps in a
// fresh fpSegMin one, which is what releases the dead epoch's entries.
const (
	fpShardBits    = 6
	fpShards       = 1 << fpShardBits
	fpWayBits      = 2
	fpWays         = 1 << fpWayBits
	fpSegMin       = 64
	fpSegMax       = 2048
	fpSessionSlots = 256
)

// fpEntry is one cached verdict, immutable once published into a slot.
// Its epoch is its segment's.
type fpEntry struct {
	key  string
	dec  *Decision
	sgen uint64
}

// fpSegment is one table generation: a power-of-two run of slots
// probed in buckets of fpWays, all filed under one fast-path epoch.
type fpSegment struct {
	epoch uint64
	slots []atomic.Pointer[fpEntry]
}

// bucket returns the fpWays slots hash h probes: the bits above the
// shard's index the bucket count's worth of them.
func (s *fpSegment) bucket(h uint64) []atomic.Pointer[fpEntry] {
	buckets := uint64(len(s.slots) / fpWays)
	i := ((h >> fpShardBits) & (buckets - 1)) * fpWays
	return s.slots[i : i+fpWays]
}

// fpTable is one cache shard: readers load the segment pointer and
// probe it lock-free; writers publish entries, and grown or fresh
// segments, under mu.
type fpTable struct {
	mu  sync.Mutex
	seg atomic.Pointer[fpSegment]
}

// FastPath is the sharded decision cache. All methods are safe for
// concurrent use.
type FastPath struct {
	epoch  atomic.Uint64
	sgens  [fpSessionSlots]atomic.Uint64
	tables [fpShards]fpTable

	hits          atomic.Uint64
	misses        atomic.Uint64
	bypass        atomic.Uint64
	invalidations atomic.Uint64
}

// FastPathStats is a point-in-time snapshot of the cache counters.
type FastPathStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Bypass        uint64 `json:"bypass"`
	Invalidations uint64 `json:"invalidations"`
	Epoch         uint64 `json:"epoch"`
}

// newFastPath returns an empty cache; tables allocate their first
// segment on their first insert.
func newFastPath() *FastPath { return &FastPath{} }

// Stats snapshots the counters.
func (f *FastPath) Stats() FastPathStats {
	return FastPathStats{
		Hits:          f.hits.Load(),
		Misses:        f.misses.Load(),
		Bypass:        f.bypass.Load(),
		Invalidations: f.invalidations.Load(),
		Epoch:         f.epoch.Load(),
	}
}

// Invalidate drops every cached verdict by bumping the epoch; segments
// filed under older epochs fail validation and are replaced lazily.
func (f *FastPath) Invalidate() {
	f.epoch.Add(1)
	f.invalidations.Add(1)
}

// InvalidateSession drops cached verdicts for one session by bumping
// its generation slot.
func (f *FastPath) InvalidateSession(sid string) {
	f.sgens[fnv1aString(sid)&(fpSessionSlots-1)].Add(1)
	f.invalidations.Add(1)
}

// sgen returns the current generation of the session's slot.
func (f *FastPath) sgen(session string) uint64 {
	return f.sgens[fnv1aString(session)&(fpSessionSlots-1)].Load()
}

// lookup returns the cached decision for key if it is still valid under
// the given epoch pair.
func (f *FastPath) lookup(key []byte, epoch, sgen uint64) (*Decision, bool) {
	h := fpHash(key)
	seg := f.tables[h&(fpShards-1)].seg.Load()
	if seg == nil || seg.epoch != epoch {
		return nil, false
	}
	b := seg.bucket(h)
	for i := range b {
		if ent := b[i].Load(); ent != nil && ent.key == string(key) { // no-alloc compare
			if ent.sgen != sgen {
				return nil, false
			}
			return ent.dec, true
		}
	}
	return nil, false
}

// store publishes a settled decision under the epoch pair captured
// before its cascade ran. A stale capture (epoch moved on) is dropped.
func (f *FastPath) store(key []byte, dec *Decision, epoch, sgen uint64) {
	cur := f.epoch.Load()
	if epoch != cur {
		return
	}
	h := fpHash(key)
	t := &f.tables[h&(fpShards-1)]
	t.mu.Lock()
	defer t.mu.Unlock()
	seg := t.seg.Load()
	if seg == nil || seg.epoch != cur {
		seg = &fpSegment{epoch: cur, slots: make([]atomic.Pointer[fpEntry], fpSegMin)}
		t.seg.Store(seg)
	}
	b := seg.bucket(h)
	slot := fpSlotFor(b, key)
	if slot < 0 {
		slot = f.deadSlot(b)
	}
	for slot < 0 && len(seg.slots) < fpSegMax {
		// Doubling splits the full bucket in two by one more hash bit;
		// the half this key lands in has room unless all its entries
		// share that bit too.
		seg = seg.grown()
		t.seg.Store(seg)
		b = seg.bucket(h)
		slot = fpSlotFor(b, key)
	}
	if slot < 0 {
		slot = int(h >> (64 - fpWayBits)) // the victim: named by the hash's top bits
	}
	b[slot].Store(&fpEntry{key: string(key), dec: dec, sgen: sgen})
}

// fpSlotFor returns the slot of bucket b that already holds key, else
// its first empty slot, else -1.
func fpSlotFor(b []atomic.Pointer[fpEntry], key []byte) int {
	empty := -1
	for i := range b {
		ent := b[i].Load()
		if ent == nil {
			if empty < 0 {
				empty = i
			}
		} else if ent.key == string(key) {
			return i
		}
	}
	return empty
}

// deadSlot returns a slot of the full bucket b whose entry can never
// hit again because its session's generation has moved on, else -1.
func (f *FastPath) deadSlot(b []atomic.Pointer[fpEntry]) int {
	for i := range b {
		if ent := b[i].Load(); ent.sgen != f.sgen(fpKeySession(ent.key)) {
			return i
		}
	}
	return -1
}

// grown returns a segment of twice the slots holding s's entries. A
// bucket's entries split between two buckets of the wider index, so
// the copy never overflows one.
func (s *fpSegment) grown() *fpSegment {
	g := &fpSegment{epoch: s.epoch, slots: make([]atomic.Pointer[fpEntry], 2*len(s.slots))}
	for i := range s.slots {
		ent := s.slots[i].Load()
		if ent == nil {
			continue
		}
		b := g.bucket(fpMix(fnv1aString(ent.key)))
		for j := range b {
			if b[j].Load() == nil {
				b[j].Store(ent)
				break
			}
		}
	}
	return g
}

// fpKeyPool recycles key buffers so the hit path allocates nothing.
var fpKeyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// appendFPKey encodes the request tuple as length-prefixed fields. A
// field longer than 255 bytes makes the tuple unencodable (bypass).
func appendFPKey(buf []byte, event, user, session, operation, object string) ([]byte, bool) {
	for _, s := range [...]string{event, user, session, operation, object} {
		if len(s) > 255 {
			return nil, false
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, true
}

// fpKeySession returns the session field — the third — of a key
// appendFPKey built, or "" for any other string.
func fpKeySession(key string) string {
	for field := 0; ; field++ {
		if len(key) == 0 || len(key) <= int(key[0]) {
			return ""
		}
		if field == 2 {
			return key[1 : 1+int(key[0])]
		}
		key = key[1+int(key[0]):]
	}
}

// fpRequest extracts the cacheable request fields from params. Any
// parameter outside the known string quartet makes the request
// uncacheable: an unknown parameter could steer a rule condition and
// must not collapse into another tuple's cache line.
func fpRequest(params map[string]any) (user, session, operation, object string, ok bool) {
	for k, v := range params {
		s, isStr := v.(string)
		if !isStr {
			return "", "", "", "", false
		}
		switch k {
		case "user":
			user = s
		case "session":
			session = s
		case "operation":
			operation = s
		case "object":
			object = s
		default:
			return "", "", "", "", false
		}
	}
	return user, session, operation, object, true
}

// fpHash is the table hash of a key. FNV-1a's bit k depends only on
// bits 0..k of its input bytes, so the mix folds the high half down
// before the shard, bucket and victim bits are cut from it.
func fpHash(key []byte) uint64 { return fpMix(fnv1a(key)) }

func fpMix(h uint64) uint64 {
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func fnv1aString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
