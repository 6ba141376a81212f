package event

import "sync/atomic"

// Batch raises many synchronous occurrences of one primitive event as
// group work items: every occurrence of a group rides a single queued
// item, so a thousand-tuple batch crosses the drain boundary once per
// group instead of once per tuple. Groups post in call order and
// deliver their occurrences in slice order, so a batch keeps exactly
// the total order of back-to-back RaiseSync calls; Wait gives the same
// settled-cascade guarantee RaiseSync gives a single request.
//
// A Batch is single-caller: build it, raise every group, Wait once. It
// must not be reused after Wait, and — like RaiseSync — must not be
// driven from inside a handler.
type Batch struct {
	d    *Detector
	prim *primitiveNode
	name string
	// escaped is set on the drain when a RaiseGroupFn delivery reports
	// its occurrence retained; Escaped reads it after Wait.
	escaped atomic.Bool
}

// NewBatch resolves name once and prepares a batch raise of it.
func (d *Detector) NewBatch(name string) (*Batch, error) {
	prim, err := d.resolvePrimitive(name)
	if err != nil {
		return nil, err
	}
	return &Batch{d: d, prim: prim, name: name}, nil
}

// RaiseGroupOwned posts one group as a single work item that builds and
// delivers an occurrence per params map, in slice order. Ownership of
// every map in group transfers to the detector — the caller must not
// touch them afterwards (the RaiseSyncTracedOwned contract, batch-wide).
func (b *Batch) RaiseGroupOwned(group []Params) {
	if len(group) == 0 {
		return
	}
	d, name, prim, now := b.d, b.name, b.prim, b.d.clk.Now()
	d.post(func() {
		d.raised.Add(uint64(len(group)))
		pooled := d.occPoolOK.Load()
		for _, p := range group {
			var occ *Occurrence
			if pooled {
				occ = occPool.Get().(*Occurrence)
			} else {
				occ = new(Occurrence)
			}
			*occ = Occurrence{Event: name, Start: now, End: now, Params: p}
			if recyclable := d.deliver(prim, occ); pooled && recyclable {
				*occ = Occurrence{}
				occPool.Put(occ)
			}
		}
	})
}

// RaiseGroupFn posts one group of n occurrences delivered through a
// single reused carrier: one occurrence struct and one params map, which
// fill rewrites in place for each index before delivery. The caller
// asserts that nothing retains occurrences of this event beyond the
// synchronous delivery — the verdict-cache-safety shape (sole
// non-retaining subscriber, no composite parents, no outcome
// listeners). The shape is re-verified per delivery: the moment a
// delivery reports the occurrence escaped (a subscriber or composite
// parent appeared mid-batch), the tainted carrier is abandoned and every
// remaining index gets fresh storage, so a mid-batch policy change
// degrades to the owned-group cost instead of corrupting a retained
// occurrence.
func (b *Batch) RaiseGroupFn(n int, fill func(i int, p Params)) {
	if n == 0 {
		return
	}
	d, name, prim, now := b.d, b.name, b.prim, b.d.clk.Now()
	d.post(func() {
		d.raised.Add(uint64(n))
		p := make(Params, 8)
		occ := new(Occurrence)
		reuse := true
		for i := 0; i < n; i++ {
			if !reuse {
				// The previous delivery escaped: its occurrence and map
				// are retained somewhere, so neither may be rewritten.
				p = make(Params, 8)
				occ = new(Occurrence)
			}
			fill(i, p)
			*occ = Occurrence{Event: name, Start: now, End: now, Params: p}
			if reuse = d.deliver(prim, occ); !reuse {
				b.escaped.Store(true)
			}
		}
	})
}

// Wait blocks until every group raised on the batch, and every cascade
// those groups triggered, has been processed.
func (b *Batch) Wait() { b.d.awaitQuiet() }

// Escaped reports, after Wait, whether any RaiseGroupFn delivery of the
// batch was retained beyond its synchronous delivery: a value fill
// wrote into the carrier may then still be reachable from a kept
// occurrence, so whatever the caller lent the batch must not be
// recycled. Owned groups are never reported: their maps belong to the
// detector already.
func (b *Batch) Escaped() bool { return b.escaped.Load() }
