package event

import (
	"sync"
	"testing"
	"time"
)

// blockDrain starts a drain on another goroutine and parks it inside a
// handler, so items raised meanwhile queue behind a busy drainer. The
// returned release unparks it; drained closes once that drainer's Raise
// returned (it drains everything queued before going idle).
func blockDrain(t *testing.T, d *Detector) (release func(), drained <-chan struct{}) {
	t.Helper()
	d.MustPrimitive("park")
	entered, unpark, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	if _, err := d.Subscribe("park", func(*Occurrence) { close(entered); <-unpark }); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.MustRaise("park", nil)
		close(done)
	}()
	<-entered
	return func() { close(unpark) }, done
}

// TestOneDrainIsCallerDrainsFIFO pins the detector's shape: the paper's
// single event-detector thread in caller-drains form. A raise onto a
// busy drain returns at once, and its item runs on the drainer's
// goroutine in FIFO order before that drainer goes idle.
func TestOneDrainIsCallerDrainsFIFO(t *testing.T) {
	d, _ := newTestDetector()
	d.MustPrimitive("e")
	var order []int // written by the drainer only
	if _, err := d.Subscribe("e", func(o *Occurrence) { order = append(order, o.Params["i"].(int)) }); err != nil {
		t.Fatal(err)
	}
	release, drained := blockDrain(t, d)
	for i := 0; i < 5; i++ {
		d.MustRaise("e", Params{"i": i}) // the drain is busy: queue and return
	}
	if q := d.Stats().Queued; q != 5 {
		t.Fatalf("Queued = %d behind the busy drain, want 5", q)
	}
	release()
	<-drained
	for i, v := range order {
		if v != i {
			t.Fatalf("drain order %v, want FIFO", order)
		}
	}
	if len(order) != 5 || d.Stats().Queued != 0 {
		t.Fatalf("drainer went idle with work left: ran %v, queued %d", order, d.Stats().Queued)
	}
}

// TestCascadeBoundReleasesWaiters: a runaway rule (every firing re-raises
// its own event) is cut at the cascade safety bound; the dropped tail
// must still release RaiseSync and Quiesce instead of wedging them, and
// the detector must keep serving.
func TestCascadeBoundReleasesWaiters(t *testing.T) {
	d, _ := newTestDetector()
	d.maxCade = 8
	d.MustPrimitive("loop")
	runs := 0
	if _, err := d.Subscribe("loop", func(o *Occurrence) {
		runs++
		if err := d.RaiseFrom(o, "loop", nil); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.RaiseSync("loop", nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RaiseSync wedged after the cascade bound dropped the runaway tail")
	}
	d.Quiesce()
	if runs != 8 || d.Stats().Queued != 0 {
		t.Fatalf("runaway ran %d times with %d queued, want 8 and 0", runs, d.Stats().Queued)
	}
	d.MustPrimitive("after")
	ran := false
	if _, err := d.Subscribe("after", func(*Occurrence) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if err := d.RaiseSync("after", nil); err != nil || !ran {
		t.Fatalf("detector stopped serving after the bound: ran=%v err=%v", ran, err)
	}
}

// TestRaiseSyncAwaitsRaiseFromDescendants: RaiseSync posted behind a busy
// drain must not return until another goroutine's drain has run its
// item and the RaiseFrom chain that item started.
func TestRaiseSyncAwaitsRaiseFromDescendants(t *testing.T) {
	d, _ := newTestDetector()
	d.MustPrimitive("e")
	d.MustPrimitive("f")
	d.MustPrimitive("g")
	var gRan bool // plain bool: -race verifies the happens-before edge
	if _, err := d.Subscribe("g", func(*Occurrence) { gRan = true }); err != nil {
		t.Fatal(err)
	}
	for _, hop := range [][2]string{{"e", "f"}, {"f", "g"}} {
		next := hop[1]
		if _, err := d.Subscribe(hop[0], func(o *Occurrence) {
			if err := d.RaiseFrom(o, next, nil); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	release, drained := blockDrain(t, d)
	done := make(chan struct{})
	go func() {
		if err := d.RaiseSync("e", nil); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("RaiseSync returned while its item was still queued")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	<-done
	if !gRan {
		t.Fatal("RaiseSync returned before its RaiseFrom descendants ran")
	}
	<-drained
}

// TestConcurrentSubmittersSerializeOnDrain drives many goroutines'
// RaiseSync calls at once. Handlers mutate plain (unsynchronized)
// counters: under -race this fails if two occurrences are ever handled
// at the same time, i.e. if anything but the one drain runs them.
func TestConcurrentSubmittersSerializeOnDrain(t *testing.T) {
	const submitters, perSubmitter = 32, 50
	d, _ := newTestDetector()
	d.MustPrimitive("e")
	counts := make([]int, submitters)
	total := 0
	if _, err := d.Subscribe("e", func(o *Occurrence) {
		counts[o.Params["i"].(int)]++
		total++
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				if err := d.RaiseSync("e", Params{"i": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	d.Quiesce()
	for i, n := range counts {
		if n != perSubmitter {
			t.Fatalf("submitter %d handled %d occurrences, want %d", i, n, perSubmitter)
		}
	}
	if total != submitters*perSubmitter {
		t.Fatalf("total = %d, want %d", total, submitters*perSubmitter)
	}
}

// TestQuiesceDrainsQueuedWork: handlers fire-and-forget into another
// event while the drain is busy elsewhere; Quiesce must not return
// until that secondary work is done too.
func TestQuiesceDrainsQueuedWork(t *testing.T) {
	d, _ := newTestDetector()
	d.MustPrimitive("e")
	d.MustPrimitive("g")
	gRuns := 0 // written by the drainer only
	if _, err := d.Subscribe("g", func(*Occurrence) { gRuns++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Subscribe("e", func(o *Occurrence) {
		_ = d.Raise("g", nil) // plain Raise: queued, not awaited by anyone
	}); err != nil {
		t.Fatal(err)
	}
	release, drained := blockDrain(t, d)
	for i := 0; i < 8; i++ {
		d.MustRaise("e", nil)
	}
	quiet := make(chan struct{})
	go func() {
		d.Quiesce()
		close(quiet)
	}()
	release()
	<-quiet
	if gRuns != 8 {
		t.Fatalf("after Quiesce, g ran %d times, want 8", gRuns)
	}
	<-drained
}
