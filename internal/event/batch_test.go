package event

import (
	"sync"
	"testing"
)

// TestBatchEmptyWait: a batch with no groups (every tuple served from a
// cache) must settle immediately.
func TestBatchEmptyWait(t *testing.T) {
	d, _ := newTestDetector()
	d.MustPrimitive("ev")
	b, err := d.NewBatch("ev")
	if err != nil {
		t.Fatal(err)
	}
	b.RaiseGroupOwned(nil) // empty group: no-op
	b.Wait()               // must not block
}

// TestBatchUndefinedEvent: resolution happens once, up front.
func TestBatchUndefinedEvent(t *testing.T) {
	d, _ := newTestDetector()
	if _, err := d.NewBatch("nope"); err == nil {
		t.Fatal("undefined event accepted")
	}
	d.MustPrimitive("composite.base")
}

// TestBatchDeliversGroupsInOrder: one drain item per group, occurrences
// of a group delivered in slice order, groups in posting order.
func TestBatchDeliversGroupsInOrder(t *testing.T) {
	d, _ := newTestDetector()
	d.MustPrimitive("ev")
	var mu sync.Mutex
	var got []string
	if _, err := d.Subscribe("ev", func(o *Occurrence) {
		mu.Lock()
		got = append(got, o.Params["id"].(string))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBatch("ev")
	if err != nil {
		t.Fatal(err)
	}
	b.RaiseGroupOwned([]Params{{"id": "a1"}, {"id": "a2"}})
	b.RaiseGroupOwned([]Params{{"id": "b1"}})
	b.Wait()
	want := []string{"a1", "a2", "b1"}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
	if n := d.Stats().Raised; n != 3 {
		t.Fatalf("raised = %d, want 3", n)
	}
}

// TestBatchWaitCoversCascades: a handler cascading with RaiseFrom queues
// behind the batch; Wait must cover the cascaded work, including a
// second batch reusing the detector afterwards.
func TestBatchWaitCoversCascades(t *testing.T) {
	d, _ := newTestDetector()
	d.MustPrimitive("ev")
	d.MustPrimitive("follow")
	var mu sync.Mutex
	follows := 0
	if _, err := d.Subscribe("ev", func(o *Occurrence) {
		if err := d.RaiseFrom(o, "follow", nil); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe("follow", func(*Occurrence) {
		mu.Lock()
		follows++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		b, err := d.NewBatch("ev")
		if err != nil {
			t.Fatal(err)
		}
		b.RaiseGroupOwned([]Params{{}, {}})
		b.Wait()
		mu.Lock()
		want := 2 * (round + 1)
		if follows != want {
			t.Fatalf("round %d: follows = %d, want %d (Wait returned early)", round, follows, want)
		}
		mu.Unlock()
	}
}

// TestBatchCarrierDeliversValues: RaiseGroupFn delivers every index with
// the values fill wrote, in order, through the reused carrier — the
// sole-non-retaining-subscriber shape where nothing retains the
// occurrence.
func TestBatchCarrierDeliversValues(t *testing.T) {
	d, _ := newTestDetector()
	d.MustPrimitive("ev")
	var mu sync.Mutex
	var got []string
	if _, err := d.SubscribeNonRetaining("ev", func(o *Occurrence) {
		mu.Lock()
		got = append(got, o.Params["id"].(string))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	ids := []string{"a1", "a2", "a3"}
	b, err := d.NewBatch("ev")
	if err != nil {
		t.Fatal(err)
	}
	b.RaiseGroupFn(len(ids), func(i int, p Params) { p["id"] = ids[i] })
	b.RaiseGroupFn(1, func(i int, p Params) { p["id"] = "b1" })
	b.Wait()
	want := []string{"a1", "a2", "a3", "b1"}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
	if n := d.Stats().Raised; n != 4 {
		t.Fatalf("raised = %d, want 4", n)
	}
}

// TestBatchCarrierDegradesWhenRetained: with a second subscriber the
// shape is broken — deliver reports the occurrence escaped — so the
// carrier must hand every index its own occurrence and params map. A
// retaining handler proves it: each kept occurrence must still show its
// own values after the batch.
func TestBatchCarrierDegradesWhenRetained(t *testing.T) {
	d, _ := newTestDetector()
	d.MustPrimitive("ev")
	var mu sync.Mutex
	var kept []*Occurrence
	if _, err := d.SubscribeNonRetaining("ev", func(*Occurrence) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe("ev", func(o *Occurrence) {
		mu.Lock()
		kept = append(kept, o)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	const n = 3
	b, err := d.NewBatch("ev")
	if err != nil {
		t.Fatal(err)
	}
	b.RaiseGroupFn(n, func(i int, p Params) { p["i"] = i })
	b.Wait()
	if len(kept) != n {
		t.Fatalf("retained %d occurrences, want %d", len(kept), n)
	}
	seen := make(map[*Occurrence]bool)
	for want, o := range kept {
		if seen[o] {
			t.Fatalf("occurrence %d reused a retained struct", want)
		}
		seen[o] = true
		if got := o.Params["i"].(int); got != want {
			t.Fatalf("retained occurrence %d holds i=%d (carrier rewrote a retained map)", want, got)
		}
	}
}

// TestBatchReportsEscape: Escaped is true after Wait exactly when some
// RaiseGroupFn delivery was retained — here, when a retaining
// subscriber joins the sole non-retaining one partway through the
// group — and false for a group delivered wholly in the carrier shape.
func TestBatchReportsEscape(t *testing.T) {
	for _, joinAt := range []int{-1, 0, 2} {
		d, _ := newTestDetector()
		d.MustPrimitive("ev")
		var kept []*Occurrence
		retain := func(o *Occurrence) { kept = append(kept, o) }
		if _, err := d.SubscribeNonRetaining("ev", func(o *Occurrence) {
			if o.Params["i"].(int) == joinAt {
				if _, err := d.Subscribe("ev", retain); err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		b, err := d.NewBatch("ev")
		if err != nil {
			t.Fatal(err)
		}
		b.RaiseGroupFn(4, func(i int, p Params) { p["i"] = i })
		b.Wait()
		if got, want := b.Escaped(), len(kept) > 0; got != want {
			t.Fatalf("join at %d: Escaped() = %v with %d occurrences retained", joinAt, got, len(kept))
		}
		if want := joinAt >= 0; b.Escaped() != want {
			t.Fatalf("join at %d: Escaped() = %v, want %v", joinAt, b.Escaped(), want)
		}
	}
}
