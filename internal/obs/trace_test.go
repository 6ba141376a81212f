package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func TestTraceStepsOrdered(t *testing.T) {
	ring := NewTraceRing(4)
	tr := ring.Start("req.checkAccess", "s1", t0)
	tr.Add(t0, StepRaise, "req.checkAccess", "", "{session=s1}", true)
	tr.Add(t0.Add(time.Millisecond), StepCondition, "req.checkAccess", "CA1", "user IN userL", true)
	tr.Add(t0.Add(time.Millisecond), StepRule, "req.checkAccess", "CA1", "then", true)
	ring.Finish(tr, t0.Add(2*time.Millisecond))

	d, ok := ring.Get(tr.ID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if !d.Complete || d.Event != "req.checkAccess" || d.Scope != "s1" {
		t.Fatalf("trace = %+v", d)
	}
	if len(d.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(d.Steps))
	}
	for i, s := range d.Steps {
		if s.Seq != i {
			t.Fatalf("step %d has seq %d", i, s.Seq)
		}
		if i > 0 && s.At.Before(d.Steps[i-1].At) {
			t.Fatalf("step %d goes back in time", i)
		}
	}
	// Traces serialize cleanly for the HTTP API.
	if _, err := json.Marshal(d); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRingEviction(t *testing.T) {
	ring := NewTraceRing(2)
	var ids []uint64
	for i := 0; i < 3; i++ {
		tr := ring.Start("e", "", t0)
		ids = append(ids, tr.ID())
		ring.Finish(tr, t0)
	}
	if _, ok := ring.Get(ids[0]); ok {
		t.Fatal("oldest trace should have been evicted")
	}
	for _, id := range ids[1:] {
		if _, ok := ring.Get(id); !ok {
			t.Fatalf("trace %d missing", id)
		}
	}
	recent := ring.Recent(0)
	if len(recent) != 2 || recent[0].ID != ids[2] || recent[1].ID != ids[1] {
		t.Fatalf("recent = %+v", recent)
	}
	if got := ring.Recent(1); len(got) != 1 || got[0].ID != ids[2] {
		t.Fatalf("recent(1) = %+v", got)
	}
}

func TestTraceConcurrentAdds(t *testing.T) {
	ring := NewTraceRing(1)
	tr := ring.Start("e", "", t0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				tr.Add(t0, StepCascade, "e2", "", "", true)
			}
		}()
	}
	wg.Wait()
	ring.Finish(tr, t0)
	d := tr.Snapshot()
	if len(d.Steps) != 4000 {
		t.Fatalf("steps = %d, want 4000", len(d.Steps))
	}
	for i, s := range d.Steps {
		if s.Seq != i {
			t.Fatalf("step %d has seq %d", i, s.Seq)
		}
	}
}
