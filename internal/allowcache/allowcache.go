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
// Hash. The caller hashes a key once (Hash, a seeded maphash) and hands
// the hash to both Lookup and Store, so a miss that stores pays for one
// hash. The hash only places and filters: the entry's full key and
// full generation decide a hit, so a wrong hash can cost a miss but
// never serve another key's value.
//
// Layout. A key hashes to one of shards tables and, inside the table's
// current segment, to one bucket of ways slots: 64 bytes, whose words
// share one cache line. A slot is a summary word and an entry pointer.
// The word holds the key's 32-bit tag (the hash's high half, top bit
// set so it is never 0) over the low 32 bits of the entry's session
// generation; 0 means empty. The writer,
// under the shard mutex, stores the pointer and then the word; a probe
// loads the word and then the pointer, and dereferences an entry only
// when the word matches the tag and generation it looks for. A torn or
// stale word can therefore only cause a miss. The bucket index comes
// from the tag, so growing a segment re-files entries from their words
// alone. A probe is lock-free and allocation-free and an insert is O(1)
// however full the table is — on a cold workload every decision is a
// miss and an insert, so the insert must cost what a probe costs.
// Inserts serialize on the shard's mutex and pick, in order: the slot
// already holding the key, an empty slot, a slot whose session
// generation has moved on (a dead entry, read from its word), a
// doubled segment when the shard is below segMax, and otherwise one
// victim chosen by the key's hash. Segments start at segMin slots on a
// shard's first insert and double up to segMax, so a small working set
// costs a small table and a Table never holds more than Capacity
// entries. A segment carries the epoch it was built under; the first
// insert after an epoch bump swaps in a fresh segMin one, which is what
// releases the dead epoch's entries.
package allowcache

import (
	"hash/maphash"
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

// slot is one way of a bucket: the summary word (tag<<32 | low 32
// bits of the generation; 0 when empty) filters the entry behind it.
type slot[V any] struct {
	word atomic.Uint64
	ent  atomic.Pointer[entry[V]]
}

// segment is one table generation: a power-of-two run of slots probed
// in buckets of ways, all filed under one epoch. A bucket is 64 bytes
// and starts on a cache line or, behind the 8-byte type header the Go
// allocator puts before a pointer-holding array under 32 KB, 8 bytes
// past one; either way its four words share one line, which is all a
// probe that finds no matching tag reads.
type segment[V any] struct {
	epoch uint64
	slots []slot[V]
}

// newSegment returns an empty segment of n slots filed under epoch. A
// minimal one — what every shard starts each epoch with — is a single
// allocation, its slots ahead of its header so that its buckets keep
// their cache-line placement.
func newSegment[V any](epoch uint64, n int) *segment[V] {
	if n == segMin {
		blk := &struct {
			slots [segMin]slot[V]
			seg   segment[V]
		}{}
		blk.seg = segment[V]{epoch: epoch, slots: blk.slots[:]}
		return &blk.seg
	}
	return &segment[V]{epoch: epoch, slots: make([]slot[V], n)}
}

// tag is the summary-word tag of hash h: its high half, with the top
// bit set so that no tag, and no occupied word, is 0.
func tag(h uint64) uint32 { return uint32(h>>32) | 1<<31 }

// word is the summary word of an entry with tag tg and generation g.
func word(tg uint32, g Gen) uint64 { return uint64(tg)<<32 | uint64(uint32(g)) }

// bucket returns the ways slots tag tg probes: the tag's low bits, the
// bucket count's worth of them.
func (s *segment[V]) bucket(tg uint32) []slot[V] {
	buckets := uint32(len(s.slots) / ways)
	i := (tg & (buckets - 1)) * ways
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
// the caller's capture. h is Hash(key).
func (t *Table[V]) Lookup(key []byte, h uint64, epoch uint64, g Gen) (v V, ok bool) {
	seg := t.shards[h&(shards-1)].seg.Load()
	if seg == nil || seg.epoch != epoch {
		return v, false
	}
	tg := tag(h)
	want := word(tg, g)
	b := seg.bucket(tg)
	for i := range b {
		if b[i].word.Load() != want {
			continue
		}
		// The word is only a filter: the entry's full key and full
		// generation decide. A nonzero word was stored after its entry.
		if ent := b[i].ent.Load(); ent.gen == g && ent.key == string(key) { // no-alloc compare
			return ent.val, true
		}
	}
	return v, false
}

// Store files v under key and the capture taken before v was decided.
// h is Hash(key). A stale capture (the epoch moved on) is dropped.
func (t *Table[V]) Store(key []byte, h uint64, v V, epoch uint64, g Gen) {
	cur := t.epoch.Load()
	if epoch != cur {
		return
	}
	sh := &t.shards[h&(shards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	seg := sh.seg.Load()
	if seg == nil || seg.epoch != cur {
		seg = newSegment[V](cur, segMin)
		sh.seg.Store(seg)
	}
	tg := tag(h)
	b := seg.bucket(tg)
	i := slotFor(b, tg, key)
	if i < 0 {
		i = t.deadSlot(b)
	}
	for i < 0 && len(seg.slots) < segMax {
		// Doubling splits the full bucket in two by one more tag bit;
		// the half this key lands in has room unless all its entries
		// share that bit too.
		seg = seg.grown()
		sh.seg.Store(seg)
		b = seg.bucket(tg)
		i = slotFor(b, tg, key)
	}
	if i < 0 {
		i = int(h>>shardBits) & (ways - 1) // the victim: named by the hash bits above the shard's
	}
	b[i].ent.Store(&entry[V]{key: string(key), val: v, gen: g})
	b[i].word.Store(word(tg, g))
}

// Len counts the entries the table holds, servable or not.
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.shards {
		if seg := t.shards[i].seg.Load(); seg != nil {
			for j := range seg.slots {
				if seg.slots[j].word.Load() != 0 {
					n++
				}
			}
		}
	}
	return n
}

// slotFor returns the slot of bucket b that already holds key, whose
// tag is tg, else its first empty slot, else -1. Only a slot whose word
// carries tg has its entry loaded.
func slotFor[V any](b []slot[V], tg uint32, key []byte) int {
	empty := -1
	for i := range b {
		w := b[i].word.Load()
		switch {
		case w == 0:
			if empty < 0 {
				empty = i
			}
		case uint32(w>>32) == tg && b[i].ent.Load().key == string(key):
			return i
		}
	}
	return empty
}

// deadSlot returns a slot of the full bucket b whose entry can never
// hit again because its session's generation has moved on, else -1.
// The word's low 32 bits are the generation's slot byte and the low 24
// bits of its count: enough to see that the count moved on.
func (t *Table[V]) deadSlot(b []slot[V]) int {
	for i := range b {
		if g := uint32(b[i].word.Load()); g != uint32(t.gen(uint8(g))) {
			return i
		}
	}
	return -1
}

// grown returns a segment of twice the slots holding s's entries. A
// bucket's entries split between two buckets of the wider index, so
// the copy never overflows one.
func (s *segment[V]) grown() *segment[V] {
	g := newSegment[V](s.epoch, 2*len(s.slots))
	for i := range s.slots {
		w := s.slots[i].word.Load()
		if w == 0 {
			continue
		}
		b := g.bucket(uint32(w >> 32))
		for j := range b {
			if b[j].word.Load() == 0 {
				b[j].ent.Store(s.slots[i].ent.Load())
				b[j].word.Store(w)
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

// seed keys Hash for the life of the process.
var seed = maphash.MakeSeed()

// Hash is the table hash of a key: the h that Lookup and Store take.
func Hash(key []byte) uint64 { return maphash.Bytes(seed, key) }

// fnv1a is the 64-bit FNV-1a hash.
func fnv1a(b string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}
