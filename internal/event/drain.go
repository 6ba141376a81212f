package event

import "time"

// item is one queued unit of drain work. at is the engine-clock enqueue
// instant, stamped only when lane-wait instrumentation is on.
type item struct {
	fn func()
	at time.Time
}

// post appends a work item and drains the queue unless another goroutine
// is already draining it (that goroutine will pick the item up). This is
// the caller-drains discipline of Sentinel+'s single event-detector
// thread: whichever goroutine enqueues onto an idle detector drains it
// to empty, and exactly one goroutine at a time drains, so state touched
// only from drain items (operator buffers, rule firings and the firing
// boundary stamp) needs no locking.
func (d *Detector) post(fn func()) {
	it := item{fn: fn}
	if ins := d.ins; ins != nil && ins.LaneWait != nil {
		it.at = d.clk.Now()
	}
	d.qmu.Lock()
	d.queue = append(d.queue, it)
	if d.draining {
		d.qmu.Unlock()
		return
	}
	d.draining = true
	d.qmu.Unlock()
	d.drain()
}

// drain runs queued items to exhaustion (or the cascade safety bound).
// Caller must have won drain ownership (set draining under qmu).
func (d *Detector) drain() {
	steps := 0
	for {
		d.qmu.Lock()
		if len(d.queue) == 0 || steps >= d.maxCade {
			// On cascade-bound overflow the remaining items are dropped (a
			// runaway-rule safety valve); the broadcast releases every
			// waiter either way.
			d.queue = d.queue[:0]
			d.draining = false
			d.quiet.Broadcast()
			d.qmu.Unlock()
			return
		}
		next := d.queue[0]
		d.queue = d.queue[1:]
		d.qmu.Unlock()
		steps++
		d.stamp = time.Time{} // the item's first rule firing reads the clock afresh
		if !next.at.IsZero() {
			if ins := d.ins; ins != nil && ins.LaneWait != nil {
				ins.LaneWait(d.clk.Now().Sub(next.at).Seconds())
			}
		}
		next.fn()
	}
}

// awaitQuiet blocks until no drain is in progress and nothing is queued.
// On one queue that is also "every cascade settled": a RaiseFrom, Raise
// or Defer from a handler enqueues behind the item that made it, so the
// drain that ran the item runs its descendants before going quiet.
func (d *Detector) awaitQuiet() {
	d.qmu.Lock()
	for d.draining || len(d.queue) > 0 {
		d.quiet.Wait()
	}
	d.qmu.Unlock()
}
