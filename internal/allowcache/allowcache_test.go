package allowcache

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// testKey is the key the engine files a checkAccess request by session
// s for object n under.
func testKey(s, n int) []byte { return appendTestKey(nil, s, n) }

// appendTestKey appends testKey(s, n) to buf.
func appendTestKey(buf []byte, s, n int) []byte {
	key, _ := AppendKey(buf, "checkAccess", "u", testSession(s), "read", "obj-"+strconv.Itoa(n))
	return key
}

func testSession(s int) string { return "s" + strconv.Itoa(s) }

// count is the number of entries shard sh holds.
func (sh *shard[V]) count() int {
	n := 0
	if seg := sh.seg.Load(); seg != nil {
		for i := range seg.slots {
			if seg.slots[i].word.Load() != 0 {
				n++
			}
		}
	}
	return n
}

// table is the value type of the tests: every stored value is a
// distinct pointer, so a hit can be traced to its store.
type table = Table[*int]

// TestTableBounded: however many distinct verdicts are stored, the
// table holds at most Capacity of them — and does fill up.
func TestTableBounded(t *testing.T) {
	f := &table{}
	dec := new(int)
	var key []byte
	for n := 0; n < 1_000_000; n++ {
		key = appendTestKey(key[:0], n%3072, n)
		f.Store(key, Hash(key), dec, 0, 0)
	}
	if Capacity != 131072 {
		t.Fatalf("capacity = %d, want 131072", Capacity)
	}
	if got := f.Len(); got > Capacity || got < Capacity*9/10 {
		t.Fatalf("live entries after 1M distinct stores = %d, want in (%d, %d]", got, Capacity*9/10, Capacity)
	}
}

// TestTableOverwriteInPlace: re-storing a key (a cold batch frame
// stores its duplicate tuples once each) replaces the entry instead of
// adding one, and the latest decision is the one served.
func TestTableOverwriteInPlace(t *testing.T) {
	f := &table{}
	key := testKey(1, 1)
	first, second := new(int), new(int)
	f.Store(key, Hash(key), first, 0, 0)
	f.Store(key, Hash(key), second, 0, 0)
	if got := f.Len(); got != 1 {
		t.Fatalf("live entries after two stores of one key = %d, want 1", got)
	}
	if dec, ok := f.Lookup(key, Hash(key), 0, 0); !ok || dec != second {
		t.Fatalf("lookup = %p, %v; want the second decision %p", dec, ok, second)
	}
}

// TestTableBucketCollisions: more keys than ways forced into one
// bucket of a full-size segment evict each other, and a probe answers a
// key with that key's own decision or not at all — the full-key compare
// never lets a neighbour's verdict through.
func TestTableBucketCollisions(t *testing.T) {
	const want = 3 * ways
	var keys [][]byte
	for n := 0; len(keys) < want; n++ {
		key := testKey(1, n)
		if h := Hash(key); h&(shards-1) == 0 && tag(h)&(segMax/ways-1) == 0 {
			keys = append(keys, key)
		}
	}
	f := &table{}
	decs := make([]*int, len(keys))
	for i, key := range keys {
		decs[i] = new(int)
		f.Store(key, Hash(key), decs[i], 0, 0)
		if dec, ok := f.Lookup(key, Hash(key), 0, 0); !ok || dec != decs[i] {
			t.Fatalf("key %d not served right after its store: %p, %v", i, dec, ok)
		}
	}
	if got := f.shards[0].count(); got != ways {
		t.Fatalf("bucket holds %d entries, want %d", got, ways)
	}
	hits := 0
	for i, key := range keys {
		dec, ok := f.Lookup(key, Hash(key), 0, 0)
		if ok && dec != decs[i] {
			t.Fatalf("key %d served another key's decision", i)
		}
		if ok {
			hits++
		}
	}
	if hits != ways {
		t.Fatalf("%d of %d colliding keys hit, want %d", hits, len(keys), ways)
	}
}

// TestTableStaleNeverHits: a verdict filed under an epoch or session
// generation that has moved on — before the store (born stale) or after
// it — is never served to a request that captured the current pair.
func TestTableStaleNeverHits(t *testing.T) {
	f := &table{}
	key, dec := testKey(7, 1), new(int)
	probe := func() bool {
		_, ok := f.Lookup(key, Hash(key), f.Epoch(), f.Session("s7"))
		return ok
	}

	epoch, sgen := f.Epoch(), f.Session("s7")
	f.Store(key, Hash(key), dec, epoch, sgen)
	if !probe() {
		t.Fatal("fresh entry does not hit")
	}
	f.Invalidate()
	if probe() {
		t.Fatal("entry survived an epoch bump")
	}
	f.Store(key, Hash(key), dec, epoch, sgen) // captured before the bump: born stale
	if probe() {
		t.Fatal("entry stored under a stale epoch hit")
	}

	epoch = f.Epoch()
	f.Store(key, Hash(key), dec, epoch, sgen)
	if !probe() {
		t.Fatal("fresh entry does not hit after the bump")
	}
	f.InvalidateSession("s7")
	if probe() {
		t.Fatal("entry survived its session's invalidation")
	}
	f.Store(key, Hash(key), dec, epoch, sgen) // captured before the session moved
	if probe() {
		t.Fatal("entry stored under a stale session generation hit")
	}
	f.Store(key, Hash(key), dec, epoch, f.Session("s7"))
	if !probe() {
		t.Fatal("entry stored under the current pair does not hit")
	}
}

// TestTableDeadEntriesAreReused: a full bucket gives up an entry
// whose session generation has moved on before the table grows or a
// live entry is evicted. The entry's own generation slot names it dead.
func TestTableDeadEntriesAreReused(t *testing.T) {
	var keys [][]byte
	var sessions []string
	f := &table{}
	slots := map[uint8]bool{}
	for n := 0; len(keys) < ways+1; n++ {
		key, session := testKey(n, n), testSession(n)
		slot := uint8(f.Session(session))
		if h := Hash(key); h&(shards-1) == 0 && tag(h)&(segMin/ways-1) == 0 && !slots[slot] {
			keys, sessions = append(keys, key), append(sessions, session)
			slots[slot] = true // one generation slot per key: invalidations stay apart
		}
	}
	for i, key := range keys[:ways] {
		f.Store(key, Hash(key), new(int), 0, f.Session(sessions[i]))
	}
	f.InvalidateSession(sessions[1])
	f.Store(keys[ways], Hash(keys[ways]), new(int), 0, f.Session(sessions[ways]))
	if got := len(f.shards[0].seg.Load().slots); got != segMin {
		t.Fatalf("segment grew to %d slots with a dead entry to reuse", got)
	}
	for i, key := range keys {
		_, ok := f.Lookup(key, Hash(key), 0, f.Session(sessions[i]))
		if want := i != 1; ok != want {
			t.Errorf("key %d hit = %v, want %v", i, ok, want)
		}
	}
}

// TestTableEpochSwapDropsSegment: after Invalidate, the next insert
// into a table replaces its grown segment by a fresh minimal one — the
// dead epoch's entries become garbage instead of staying pinned — while
// a table nobody inserts into keeps its (unservable) segment.
func TestTableEpochSwapDropsSegment(t *testing.T) {
	f := &table{}
	dec := new(int)
	var in0, in1 []byte // one key each of tables 0 and 1, stored after the bump
	for n := 0; n < 20_000; n++ {
		key := testKey(n%64, n)
		switch Hash(key) & (shards - 1) {
		case 0:
			in0 = key
		case 1:
			in1 = key
		}
		f.Store(key, Hash(key), dec, 0, 0)
	}
	old0, old1 := f.shards[0].seg.Load(), f.shards[1].seg.Load()
	if len(old0.slots) <= segMin || f.shards[0].count() < segMin {
		t.Fatalf("table 0 did not grow: %d slots, %d live", len(old0.slots), f.shards[0].count())
	}
	f.Invalidate()
	f.Store(in0, Hash(in0), dec, 1, 0)
	seg := f.shards[0].seg.Load()
	if seg == old0 || seg.epoch != 1 || len(seg.slots) != segMin || f.shards[0].count() != 1 {
		t.Fatalf("table 0 after the post-bump insert: same segment %v, epoch %d, %d slots, %d live; want a fresh epoch-1 segment of %d slots with 1 entry",
			seg == old0, seg.epoch, len(seg.slots), f.shards[0].count(), segMin)
	}
	if f.shards[1].seg.Load() != old1 {
		t.Fatal("table 1 was swapped without an insert")
	}
	if _, ok := f.Lookup(in1, Hash(in1), 1, 0); ok {
		t.Fatal("table 1 served an entry of the dead epoch")
	}
}

// TestTableConcurrent: 16 goroutines store, probe and invalidate at
// once (-race). Every key has its own decision; whatever interleaving
// happens, a hit must return exactly that decision.
func TestTableConcurrent(t *testing.T) {
	const nkeys = 4096
	keys := make([][]byte, nkeys)
	sessions := make([]string, nkeys)
	decs := make([]*int, nkeys)
	index := make(map[*int]int, nkeys)
	for i := range keys {
		keys[i] = testKey(i%97, i)
		sessions[i] = testSession(i % 97)
		decs[i] = new(int)
		index[decs[i]] = i
	}
	f := &table{}
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 20_000; n++ {
				i := (n*31 + g*257) % nkeys
				switch {
				case g == 0 && n%2000 == 0:
					f.Invalidate()
				case g == 1 && n%50 == 0:
					f.InvalidateSession(sessions[i])
				case (n+g)%3 == 0:
					f.Store(keys[i], Hash(keys[i]), decs[i], f.Epoch(), f.Session(sessions[i]))
				default:
					if dec, ok := f.Lookup(keys[i], Hash(keys[i]), f.Epoch(), f.Session(sessions[i])); ok {
						hits.Add(1)
						if index[dec] != i {
							t.Errorf("key %d served the decision of key %d", i, index[dec])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("no probe hit: the test exercised nothing")
	}
	if got := f.Len(); got > nkeys {
		t.Fatalf("%d live entries for %d keys", got, nkeys)
	}
}

// storeWindow is the number of stores one flatness measurement
// times: a quarter of the cache, so fill=0 means "0–25 % full".
const storeWindow = shards * segMax / 4

// storeKeys returns n distinct keys of the cold_batch shape, numbered
// from base.
func storeKeys(base, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = testKey((base+i)%3072, base+i)
	}
	return keys
}

// filled returns a cache holding about fill percent of its capacity,
// given twice its capacity in keys: buckets fill unevenly, so the full
// cache is reached by overshooting.
func filled(prefill [][]byte, fill int) *table {
	n := len(prefill) / 2 * fill / 100
	if fill == 100 {
		n = len(prefill)
	}
	f := &table{}
	dec := new(int)
	for _, key := range prefill[:n] {
		f.Store(key, Hash(key), dec, 0, 0)
	}
	return f
}

// timeStores stores every key into f and returns the time it took.
func timeStores(f *table, keys [][]byte) time.Duration {
	dec := new(int)
	t0 := time.Now()
	for _, key := range keys {
		f.Store(key, Hash(key), dec, 0, 0)
	}
	return time.Since(t0)
}

// BenchmarkTableStore times one insert of a new key into a cache
// that is empty, half full and full: the cost must not depend on how
// many verdicts the cache already holds.
func BenchmarkTableStore(b *testing.B) {
	prefill := storeKeys(0, 2*shards*segMax)
	fresh := storeKeys(len(prefill), storeWindow)
	for _, fill := range []int{0, 50, 100} {
		b.Run(fmt.Sprintf("fill=%d", fill), func(b *testing.B) {
			var total time.Duration
			for done := 0; done < b.N; done += len(fresh) {
				total += timeStores(filled(prefill, fill), fresh[:min(len(fresh), b.N-done)])
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}

// TestTableStoreFlat: the per-insert cost at 0, 50 and 100 % fill
// stays within 3× (the clone-per-insert cache it replaces was ~100×
// from empty to full). The fills are timed round-robin, so a noisy
// stretch of the host costs every fill one round instead of landing on
// one fill.
func TestTableStoreFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	prefill := storeKeys(0, 2*shards*segMax)
	fresh := storeKeys(len(prefill), storeWindow)
	fills := []int{0, 50, 100}
	best := make([]time.Duration, len(fills))
	for round := 0; round < 5; round++ {
		for i, fill := range fills {
			if d := timeStores(filled(prefill, fill), fresh); round == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	lo, hi := slices.Min(best), slices.Max(best)
	for i, fill := range fills {
		t.Logf("fill=%d: %d ns/store", fill, best[i].Nanoseconds()/storeWindow)
	}
	if hi > 3*lo {
		t.Fatalf("store cost varies %.1f× with fill, want ≤ 3×", float64(hi)/float64(lo))
	}
}

// FuzzAppendKey: two field tuples encode equal keys iff the tuples are
// equal, and a tuple with a field over 255 bytes is unencodable. Keys
// also decode back to their fields, so tuples of different lengths
// never collide either.
func FuzzAppendKey(f *testing.F) {
	f.Add("a", "b\x00c", "a\x00b", "c")
	f.Add("", "ab", "a", "b")
	f.Add(strings.Repeat("x", 255), "", strings.Repeat("x", 256), "")
	f.Fuzz(func(t *testing.T, a1, b1, a2, b2 string) {
		k1, ok1 := AppendKey(nil, a1, b1)
		k2, ok2 := AppendKey(nil, a2, b2)
		for _, c := range []struct {
			key  []byte
			ok   bool
			a, b string
		}{{k1, ok1, a1, b1}, {k2, ok2, a2, b2}} {
			if want := len(c.a) <= 255 && len(c.b) <= 255; c.ok != want {
				t.Fatalf("AppendKey(%q, %q) encodable = %v, want %v", c.a, c.b, c.ok, want)
			}
			if c.ok && !slices.Equal(decodeKey(t, c.key), []string{c.a, c.b}) {
				t.Fatalf("key of (%q, %q) decodes to %q", c.a, c.b, decodeKey(t, c.key))
			}
		}
		if ok1 && ok2 && bytes.Equal(k1, k2) != (a1 == a2 && b1 == b2) {
			t.Fatalf("(%q, %q) and (%q, %q): keys equal = %v", a1, b1, a2, b2, bytes.Equal(k1, k2))
		}
	})
}

// decodeKey splits a key AppendKey built back into its fields.
func decodeKey(t *testing.T, key []byte) []string {
	var fields []string
	for len(key) > 0 {
		n := int(key[0])
		if len(key) < 1+n {
			t.Fatalf("key truncated inside a field: %q", key)
		}
		fields = append(fields, string(key[1:1+n]))
		key = key[1+n:]
	}
	return fields
}

// TestTableTagMatchOtherKey: a slot whose summary word matches the
// probe's tag and generation while its entry holds another key — the
// state two keys with one hash leave — is a miss, not that key's value.
func TestTableTagMatchOtherKey(t *testing.T) {
	f := &table{}
	k1, k2 := testKey(1, 1), testKey(1, 2)
	h, g := Hash(k1), f.Session(testSession(1))
	v1 := new(int)
	f.Store(k1, h, v1, 0, g)
	b := f.shards[h&(shards-1)].seg.Load().bucket(tag(h))
	matched := false
	for i := range b {
		matched = matched || b[i].word.Load() == word(tag(h), g)
	}
	if !matched {
		t.Fatal("no slot carries the stored key's tag and generation")
	}
	if v, ok := f.Lookup(k2, h, 0, g); ok {
		t.Fatalf("lookup of another key under a matching word hit: %p (stored %p)", v, v1)
	}
	if v, ok := f.Lookup(k1, h, 0, g); !ok || v != v1 {
		t.Fatalf("the stored key itself = %p, %v; want %p", v, ok, v1)
	}
}

// TestBucketWordsShareALine: at every segment size, the four summary
// words of a bucket lie in one 64-byte cache line.
func TestBucketWordsShareALine(t *testing.T) {
	for n := segMin; n <= segMax; n *= 2 {
		seg := newSegment[*int](0, n)
		for i := 0; i < n; i += ways {
			first := uintptr(unsafe.Pointer(&seg.slots[i].word))
			last := uintptr(unsafe.Pointer(&seg.slots[i+ways-1].word))
			if first/64 != last/64 {
				t.Fatalf("%d slots: bucket %d's words span lines (%#x..%#x)", n, i/ways, first, last)
			}
		}
	}
}

// FuzzTableModel drives random sequences of Store, Lookup, Invalidate
// and InvalidateSession over a few keys and sessions against a model
// that remembers, per key, the last store the table accepted. Each key
// is hashed either truly or to one hash shared by every forced key, so
// forced keys collide on shard, bucket and tag. A hit must return the
// last value stored for that exact key, filed under the lookup's own
// capture; a miss is always allowed (the table may evict).
func FuzzTableModel(f *testing.F) {
	f.Add(uint8(0x0f), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(0xff), []byte{0, 8, 16, 1, 9, 17, 0x42, 1, 9, 17, 3, 0x83, 1})
	f.Add(uint8(0xaa), []byte{0, 0, 0x20, 0, 1, 0x21, 0x22, 4, 1, 9})
	f.Fuzz(func(t *testing.T, forced uint8, ops []byte) {
		const nkeys, nsessions = 8, 3
		keys := make([][]byte, nkeys)
		hashes := make([]uint64, nkeys)
		for k := range keys {
			keys[k] = testKey(k%nsessions, k)
			hashes[k] = Hash(keys[k])
			if forced&(1<<k) != 0 {
				hashes[k] = 0x5eed_c011_1de5_0000 // one hash for every forced key
			}
		}
		type stored struct {
			v     *int
			epoch uint64
			g     Gen
		}
		last := make([]*stored, nkeys)
		tab := &table{}
		// A capture taken earlier and reused later files born-stale
		// entries when the epoch or the session moved in between.
		var held [nkeys]*stored
		for _, op := range ops {
			k := int(op>>3) % nkeys
			session := testSession(k % nsessions)
			switch op & 7 {
			case 0, 1: // store under a fresh capture
				s := &stored{new(int), tab.Epoch(), tab.Session(session)}
				tab.Store(keys[k], hashes[k], s.v, s.epoch, s.g)
				if s.epoch == tab.Epoch() {
					last[k] = s
				}
			case 2: // capture now, store later
				held[k] = &stored{nil, tab.Epoch(), tab.Session(session)}
			case 3: // store under the held capture
				if c := held[k]; c != nil {
					s := &stored{new(int), c.epoch, c.g}
					tab.Store(keys[k], hashes[k], s.v, s.epoch, s.g)
					if s.epoch == tab.Epoch() {
						last[k] = s
					}
				}
			case 4:
				tab.Invalidate()
			case 5:
				tab.InvalidateSession(session)
			default: // lookup under the live capture
				epoch, g := tab.Epoch(), tab.Session(session)
				v, ok := tab.Lookup(keys[k], hashes[k], epoch, g)
				if !ok {
					continue
				}
				want := last[k]
				if want == nil || want.v != v || want.epoch != epoch || want.g != g {
					t.Fatalf("key %d hit %p, want a miss or its last store %+v under epoch %d gen %#x", k, v, want, epoch, g)
				}
			}
		}
	})
}
