// Package allowcache is the epoch-tagged allow cache both verdict
// caches run on: the engine's fast path (DESIGN §5.4) and the embedded
// wire client cache (§5.9). It owns the born-stale protocol: a caller
// captures the table epoch (Epoch) and its session's generation
// (Session) BEFORE it decides and files the verdict under that capture
// (Store); every change a cached verdict may depend on bumps the epoch
// (Invalidate) or the session's generation (InvalidateSession) after it
// is published, so a decision that interleaves with a change is stored
// born stale; a probe (Lookup) hits only an entry filed under the
// caller's own capture. Sessions hash into a fixed array of generation
// slots; two sessions sharing a slot merely over-invalidate each other.
//
// Layout. A key hashes to one of shards tables and, inside the table's
// current segment, to one ways-slot bucket. Every slot is an
// atomically published pointer to an immutable entry, so a probe is
// lock-free and allocation-free (at most ways full-key compares) and an
// insert is O(1) however full the table is — on a cold workload every
// decision is a miss and an insert, so the insert must cost what a
// probe costs. Inserts serialize on the shard's mutex and pick, in
// order: the slot already holding the key, an empty slot, a slot whose
// session generation has moved on (a dead entry), a doubled segment
// when the shard is below segMax, and otherwise one victim chosen by
// the key's hash. Segments start at segMin slots on a shard's first
// insert and double up to segMax, so a small working set costs a small
// table and a Table never holds more than Capacity entries. A segment
// carries the epoch it was built under; the first insert after an
// epoch bump swaps in a fresh segMin one, which is what releases the
// dead epoch's entries.
package allowcache

import (
	"sync"
	"sync/atomic"
)

const (
	shardBits = 6
	shards    = 1 << shardBits
	wayBits   = 2
	ways      = 1 << wayBits
	segMin    = 64
	segMax    = 2048

	// Capacity is the most entries a Table holds.
	Capacity = shards * segMax
)

// Gen is a session's generation as captured before a decision: its
// generation slot in the low byte, under the slot's generation count.
type Gen uint64

// entry is one cached value, immutable once published; its epoch is
// its segment's, and gen names its session's slot.
type entry[V any] struct {
	key string
	val V
	gen Gen
}

// segment is one table generation: a power-of-two run of slots probed
// in buckets of ways, all filed under one epoch.
type segment[V any] struct {
	epoch uint64
	slots []atomic.Pointer[entry[V]]
}

// bucket returns the ways slots hash h probes: the bits above the
// shard's index, the bucket count's worth of them.
func (s *segment[V]) bucket(h uint64) []atomic.Pointer[entry[V]] {
	buckets := uint64(len(s.slots) / ways)
	i := ((h >> shardBits) & (buckets - 1)) * ways
	return s.slots[i : i+ways]
}

// shard is one lock-striped table: readers probe its segment lock-free;
// writers publish entries, and new segments, under mu.
type shard[V any] struct {
	mu  sync.Mutex
	seg atomic.Pointer[segment[V]]
}

// Table is a bounded epoch-tagged cache from a key (AppendKey) to a V.
// The zero value is empty. All methods are safe for concurrent use.
type Table[V any] struct {
	epoch  atomic.Uint64
	sgens  [256]atomic.Uint64 // one generation per uint8 session slot
	shards [shards]shard[V]
}

// Epoch returns the current epoch: the capture a decision files its
// verdict under.
func (t *Table[V]) Epoch() uint64 { return t.epoch.Load() }

// Invalidate retires every entry by bumping the epoch; segments filed
// under older epochs fail validation and are replaced lazily.
func (t *Table[V]) Invalidate() { t.epoch.Add(1) }

// InvalidateSession retires the entries of one session by bumping its
// generation slot.
func (t *Table[V]) InvalidateSession(session string) { t.sgens[uint8(fnv1a(session))].Add(1) }

// Session captures the current generation of the session's slot.
func (t *Table[V]) Session(session string) Gen { return t.gen(uint8(fnv1a(session))) }

// gen returns the current generation of slot s.
func (t *Table[V]) gen(s uint8) Gen { return Gen(t.sgens[s].Load()<<8 | uint64(s)) }

// Lookup returns the value filed under key if it is still valid under
// the caller's capture.
func (t *Table[V]) Lookup(key []byte, epoch uint64, g Gen) (v V, ok bool) {
	h := hash(key)
	seg := t.shards[h&(shards-1)].seg.Load()
	if seg == nil || seg.epoch != epoch {
		return v, false
	}
	b := seg.bucket(h)
	for i := range b {
		if ent := b[i].Load(); ent != nil && ent.key == string(key) { // no-alloc compare
			if ent.gen != g {
				return v, false
			}
			return ent.val, true
		}
	}
	return v, false
}

// Store files v under key and the capture taken before v was decided.
// A stale capture (the epoch moved on) is dropped.
func (t *Table[V]) Store(key []byte, v V, epoch uint64, g Gen) {
	cur := t.epoch.Load()
	if epoch != cur {
		return
	}
	h := hash(key)
	sh := &t.shards[h&(shards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	seg := sh.seg.Load()
	if seg == nil || seg.epoch != cur {
		seg = &segment[V]{epoch: cur, slots: make([]atomic.Pointer[entry[V]], segMin)}
		sh.seg.Store(seg)
	}
	b := seg.bucket(h)
	slot := slotFor(b, key)
	if slot < 0 {
		slot = t.deadSlot(b)
	}
	for slot < 0 && len(seg.slots) < segMax {
		// Doubling splits the full bucket in two by one more hash bit;
		// the half this key lands in has room unless all its entries
		// share that bit too.
		seg = seg.grown()
		sh.seg.Store(seg)
		b = seg.bucket(h)
		slot = slotFor(b, key)
	}
	if slot < 0 {
		slot = int(h >> (64 - wayBits)) // the victim: named by the hash's top bits
	}
	b[slot].Store(&entry[V]{key: string(key), val: v, gen: g})
}

// Len counts the entries the table holds, servable or not.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.shards {
		if seg := t.shards[i].seg.Load(); seg != nil {
			for j := range seg.slots {
				if seg.slots[j].Load() != nil {
					n++
				}
			}
		}
	}
	return n
}

// slotFor returns the slot of bucket b that already holds key, else its
// first empty slot, else -1.
func slotFor[V any](b []atomic.Pointer[entry[V]], key []byte) int {
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
func (t *Table[V]) deadSlot(b []atomic.Pointer[entry[V]]) int {
	for i := range b {
		if g := b[i].Load().gen; g != t.gen(uint8(g)) {
			return i
		}
	}
	return -1
}

// grown returns a segment of twice the slots holding s's entries. A
// bucket's entries split between two buckets of the wider index, so
// the copy never overflows one.
func (s *segment[V]) grown() *segment[V] {
	g := &segment[V]{epoch: s.epoch, slots: make([]atomic.Pointer[entry[V]], 2*len(s.slots))}
	for i := range s.slots {
		ent := s.slots[i].Load()
		if ent == nil {
			continue
		}
		b := g.bucket(hash(ent.key))
		for j := range b {
			if b[j].Load() == nil {
				b[j].Store(ent)
				break
			}
		}
	}
	return g
}

// AppendKey appends the key of a field tuple to buf: each field
// prefixed by its one-byte length, so ("a","b\x00c") and ("a\x00b","c")
// encode apart. A field longer than 255 bytes makes the tuple
// unencodable: it reports false, and the caller bypasses the cache.
func AppendKey(buf []byte, fields ...string) ([]byte, bool) {
	for _, s := range fields {
		if len(s) > 255 {
			return nil, false
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, true
}

// hash is the table hash of a key. FNV-1a's bit k depends only on bits
// 0..k of its input bytes, so the mix folds the high half down before
// the shard, bucket and victim bits are cut from it.
func hash[K string | []byte](key K) uint64 {
	h := fnv1a(key)
	h ^= h >> 32
	h *= 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a[K string | []byte](b K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}
