package sentinel

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fpTestKey is the cache key of a checkAccess request by session s for
// object n.
func fpTestKey(s, n int) []byte { return appendFPTestKey(nil, s, n) }

// appendFPTestKey appends fpTestKey(s, n) to buf.
func appendFPTestKey(buf []byte, s, n int) []byte {
	key, _ := appendFPKey(buf, "checkAccess", "u", "s"+strconv.Itoa(s), "read", "obj-"+strconv.Itoa(n))
	return key
}

// live counts the entries table i holds.
func (f *FastPath) live(i int) int {
	seg := f.tables[i].seg.Load()
	if seg == nil {
		return 0
	}
	n := 0
	for j := range seg.slots {
		if seg.slots[j].Load() != nil {
			n++
		}
	}
	return n
}

func (f *FastPath) liveTotal() int {
	n := 0
	for i := range f.tables {
		n += f.live(i)
	}
	return n
}

// TestFastPathBounded: however many distinct verdicts are stored, the
// cache holds at most fpShards × fpSegMax of them — and does fill up.
func TestFastPathBounded(t *testing.T) {
	f := newFastPath()
	dec := &Decision{}
	var key []byte
	for n := 0; n < 1_000_000; n++ {
		key = appendFPTestKey(key[:0], n%3072, n)
		f.store(key, dec, 0, 0)
	}
	const capacity = fpShards * fpSegMax
	if capacity != 131072 {
		t.Fatalf("capacity = %d, want 131072", capacity)
	}
	if got := f.liveTotal(); got > capacity || got < capacity*9/10 {
		t.Fatalf("live entries after 1M distinct stores = %d, want in (%d, %d]", got, capacity*9/10, capacity)
	}
}

// TestFastPathOverwriteInPlace: re-storing a key (a cold batch frame
// stores its duplicate tuples once each) replaces the entry instead of
// adding one, and the latest decision is the one served.
func TestFastPathOverwriteInPlace(t *testing.T) {
	f := newFastPath()
	key := fpTestKey(1, 1)
	first, second := &Decision{}, &Decision{}
	f.store(key, first, 0, 0)
	f.store(key, second, 0, 0)
	if got := f.liveTotal(); got != 1 {
		t.Fatalf("live entries after two stores of one key = %d, want 1", got)
	}
	if dec, ok := f.lookup(key, 0, 0); !ok || dec != second {
		t.Fatalf("lookup = %p, %v; want the second decision %p", dec, ok, second)
	}
}

// TestFastPathBucketCollisions: more keys than ways forced into one
// bucket of a full-size segment evict each other, and a probe answers a
// key with that key's own decision or not at all — the full-key compare
// never lets a neighbour's verdict through.
func TestFastPathBucketCollisions(t *testing.T) {
	const want = 3 * fpWays
	var keys [][]byte
	for n := 0; len(keys) < want; n++ {
		key := fpTestKey(1, n)
		if h := fpHash(key); h&(fpShards-1) == 0 && (h>>fpShardBits)&(fpSegMax/fpWays-1) == 0 {
			keys = append(keys, key)
		}
	}
	f := newFastPath()
	decs := make([]*Decision, len(keys))
	for i, key := range keys {
		decs[i] = &Decision{}
		f.store(key, decs[i], 0, 0)
		if dec, ok := f.lookup(key, 0, 0); !ok || dec != decs[i] {
			t.Fatalf("key %d not served right after its store: %p, %v", i, dec, ok)
		}
	}
	if got := f.live(0); got != fpWays {
		t.Fatalf("bucket holds %d entries, want %d", got, fpWays)
	}
	hits := 0
	for i, key := range keys {
		dec, ok := f.lookup(key, 0, 0)
		if ok && dec != decs[i] {
			t.Fatalf("key %d served another key's decision", i)
		}
		if ok {
			hits++
		}
	}
	if hits != fpWays {
		t.Fatalf("%d of %d colliding keys hit, want %d", hits, len(keys), fpWays)
	}
}

// TestFastPathStaleNeverHits: a verdict filed under an epoch or session
// generation that has moved on — before the store (born stale) or after
// it — is never served to a request that captured the current pair.
func TestFastPathStaleNeverHits(t *testing.T) {
	f := newFastPath()
	key, dec := fpTestKey(7, 1), &Decision{}
	probe := func() bool {
		_, ok := f.lookup(key, f.epoch.Load(), f.sgen("s7"))
		return ok
	}

	epoch, sgen := f.epoch.Load(), f.sgen("s7")
	f.store(key, dec, epoch, sgen)
	if !probe() {
		t.Fatal("fresh entry does not hit")
	}
	f.Invalidate()
	if probe() {
		t.Fatal("entry survived an epoch bump")
	}
	f.store(key, dec, epoch, sgen) // captured before the bump: born stale
	if probe() {
		t.Fatal("entry stored under a stale epoch hit")
	}

	epoch = f.epoch.Load()
	f.store(key, dec, epoch, sgen)
	if !probe() {
		t.Fatal("fresh entry does not hit after the bump")
	}
	f.InvalidateSession("s7")
	if probe() {
		t.Fatal("entry survived its session's invalidation")
	}
	f.store(key, dec, epoch, sgen) // captured before the session moved
	if probe() {
		t.Fatal("entry stored under a stale session generation hit")
	}
	f.store(key, dec, epoch, f.sgen("s7"))
	if !probe() {
		t.Fatal("entry stored under the current pair does not hit")
	}
}

// TestFastPathDeadEntriesAreReused: a full bucket gives up an entry
// whose session generation has moved on before the table grows or a
// live entry is evicted.
func TestFastPathDeadEntriesAreReused(t *testing.T) {
	var keys [][]byte
	slots := map[uint64]bool{}
	for n := 0; len(keys) < fpWays+1; n++ {
		key := fpTestKey(n, n)
		slot := fnv1aString(fpKeySession(string(key))) & (fpSessionSlots - 1)
		if h := fpHash(key); h&(fpShards-1) == 0 && (h>>fpShardBits)&(fpSegMin/fpWays-1) == 0 && !slots[slot] {
			keys = append(keys, key)
			slots[slot] = true // one generation slot per key: invalidations stay apart
		}
	}
	f := newFastPath()
	for _, key := range keys[:fpWays] {
		f.store(key, &Decision{}, 0, f.sgen(fpKeySession(string(key))))
	}
	dead := fpKeySession(string(keys[1]))
	f.InvalidateSession(dead)
	last := keys[fpWays]
	f.store(last, &Decision{}, 0, f.sgen(fpKeySession(string(last))))
	if got := len(f.tables[0].seg.Load().slots); got != fpSegMin {
		t.Fatalf("segment grew to %d slots with a dead entry to reuse", got)
	}
	for i, key := range keys {
		_, ok := f.lookup(key, 0, f.sgen(fpKeySession(string(key))))
		if want := i != 1; ok != want {
			t.Errorf("key %d hit = %v, want %v", i, ok, want)
		}
	}
}

// TestFastPathEpochSwapDropsSegment: after Invalidate, the next insert
// into a table replaces its grown segment by a fresh minimal one — the
// dead epoch's entries become garbage instead of staying pinned — while
// a table nobody inserts into keeps its (unservable) segment.
func TestFastPathEpochSwapDropsSegment(t *testing.T) {
	f := newFastPath()
	dec := &Decision{}
	var in0, in1 []byte // one key each of tables 0 and 1, stored after the bump
	for n := 0; n < 20_000; n++ {
		key := fpTestKey(n%64, n)
		switch fpHash(key) & (fpShards - 1) {
		case 0:
			in0 = key
		case 1:
			in1 = key
		}
		f.store(key, dec, 0, 0)
	}
	old0, old1 := f.tables[0].seg.Load(), f.tables[1].seg.Load()
	if len(old0.slots) <= fpSegMin || f.live(0) < fpSegMin {
		t.Fatalf("table 0 did not grow: %d slots, %d live", len(old0.slots), f.live(0))
	}
	f.Invalidate()
	f.store(in0, dec, 1, 0)
	seg := f.tables[0].seg.Load()
	if seg == old0 || seg.epoch != 1 || len(seg.slots) != fpSegMin || f.live(0) != 1 {
		t.Fatalf("table 0 after the post-bump insert: same segment %v, epoch %d, %d slots, %d live; want a fresh epoch-1 segment of %d slots with 1 entry",
			seg == old0, seg.epoch, len(seg.slots), f.live(0), fpSegMin)
	}
	if f.tables[1].seg.Load() != old1 {
		t.Fatal("table 1 was swapped without an insert")
	}
	if _, ok := f.lookup(in1, 1, 0); ok {
		t.Fatal("table 1 served an entry of the dead epoch")
	}
}

// TestFastPathConcurrent: 16 goroutines store, probe and invalidate at
// once (-race). Every key has its own decision; whatever interleaving
// happens, a hit must return exactly that decision.
func TestFastPathConcurrent(t *testing.T) {
	const nkeys = 4096
	keys := make([][]byte, nkeys)
	sessions := make([]string, nkeys)
	decs := make([]*Decision, nkeys)
	index := make(map[*Decision]int, nkeys)
	for i := range keys {
		keys[i] = fpTestKey(i%97, i)
		sessions[i] = fmt.Sprintf("s%d", i%97)
		decs[i] = &Decision{}
		index[decs[i]] = i
	}
	f := newFastPath()
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
					f.store(keys[i], decs[i], f.epoch.Load(), f.sgen(sessions[i]))
				default:
					if dec, ok := f.lookup(keys[i], f.epoch.Load(), f.sgen(sessions[i])); ok {
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
	if got := f.liveTotal(); got > nkeys {
		t.Fatalf("%d live entries for %d keys", got, nkeys)
	}
}

// fpStoreWindow is the number of stores one flatness measurement
// times: a quarter of the cache, so fill=0 means "0–25 % full".
const fpStoreWindow = fpShards * fpSegMax / 4

// fpStoreKeys returns n distinct keys of the cold_batch shape, numbered
// from base.
func fpStoreKeys(base, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fpTestKey((base+i)%3072, base+i)
	}
	return keys
}

// fpFilled returns a cache holding about fill percent of its capacity,
// given twice its capacity in keys: buckets fill unevenly, so the full
// cache is reached by overshooting.
func fpFilled(prefill [][]byte, fill int) *FastPath {
	n := len(prefill) / 2 * fill / 100
	if fill == 100 {
		n = len(prefill)
	}
	f := newFastPath()
	dec := &Decision{}
	for _, key := range prefill[:n] {
		f.store(key, dec, 0, 0)
	}
	return f
}

// timeStores stores every key into f and returns the time it took.
func timeStores(f *FastPath, keys [][]byte) time.Duration {
	dec := &Decision{}
	t0 := time.Now()
	for _, key := range keys {
		f.store(key, dec, 0, 0)
	}
	return time.Since(t0)
}

// BenchmarkFastPathStore times one insert of a new key into a cache
// that is empty, half full and full: the cost must not depend on how
// many verdicts the cache already holds.
func BenchmarkFastPathStore(b *testing.B) {
	prefill := fpStoreKeys(0, 2*fpShards*fpSegMax)
	fresh := fpStoreKeys(len(prefill), fpStoreWindow)
	for _, fill := range []int{0, 50, 100} {
		b.Run(fmt.Sprintf("fill=%d", fill), func(b *testing.B) {
			var total time.Duration
			for done := 0; done < b.N; done += len(fresh) {
				total += timeStores(fpFilled(prefill, fill), fresh[:min(len(fresh), b.N-done)])
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}

// TestFastPathStoreFlat: the per-insert cost at 0, 50 and 100 % fill
// stays within 3× (the clone-per-insert cache it replaces was ~100×
// from empty to full).
func TestFastPathStoreFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	prefill := fpStoreKeys(0, 2*fpShards*fpSegMax)
	fresh := fpStoreKeys(len(prefill), fpStoreWindow)
	var lo, hi time.Duration
	for _, fill := range []int{0, 50, 100} {
		best := min(timeStores(fpFilled(prefill, fill), fresh), timeStores(fpFilled(prefill, fill), fresh))
		t.Logf("fill=%d: %d ns/store", fill, best.Nanoseconds()/fpStoreWindow)
		if lo == 0 || best < lo {
			lo = best
		}
		hi = max(hi, best)
	}
	if hi > 3*lo {
		t.Fatalf("store cost varies %.1f× with fill, want ≤ 3×", float64(hi)/float64(lo))
	}
}
