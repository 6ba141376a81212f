package sentinel

import (
	"slices"
	"sync"
	"time"

	"activerbac/internal/allowcache"
	"activerbac/internal/event"
	"activerbac/internal/obs"
)

// CheckTuple is one enforcement request of a batch: the canonical
// four-field tuple DecideCheck takes as separate arguments, plus the
// request's trace identity.
type CheckTuple struct {
	User      string
	Session   string
	Operation string
	Object    string
	// Trace, when nonzero, asks for this tuple's cascade trace to be
	// retained under the client-minted id. The tuple then leaves the
	// batch floor for the per-tuple cascade and never touches the
	// verdict cache, even with tracing off.
	Trace obs.TraceID
}

// Verdict is one settled batch decision: the aggregate allow/deny and,
// on a denial, the first deny reason (the same pair Decision.Verdict
// reports).
type Verdict struct {
	Allowed bool
	Reason  string
}

// fpKeyNone marks a tuple with no stored cache key: a cache hit, an
// unencodable tuple, or a batch whose event is not cacheable at all.
const fpKeyNone = -1

// batchState is the pooled per-batch scratch: decision slots, the
// shared fast-path key buffer with per-tuple offsets, captured session
// generations, and the cascading tuples. One Get/Put per batch
// amortizes every allocation the per-tuple path would pay N times.
type batchState struct {
	decs   []*Decision
	keys   []byte  // all fast-path keys of the batch, back to back
	keyOff []int32 // per tuple: offset into keys, or fpKeyNone
	keyEnd []int32 // per tuple: end of its key in keys
	sgens  []allowcache.Gen

	group []event.Params // owned mode: each cascading tuple's params, in input order
	idx   []int32        // carrier mode: each cascading tuple's index, in input order

	// box interns string-to-any boxing for the batch's params maps:
	// sessions, users, operations and objects repeat heavily within a
	// batch, and boxing a string into an interface allocates every
	// time — four allocations per tuple the per-tuple path cannot
	// avoid but a batch can share. The submitter interns every tuple's
	// four boxes into boxes[4*i:4*i+4] before raising the group, so the
	// carrier fill — which runs on the drain, possibly another caller's
	// goroutine — only reads the slice and the serialized drain does no
	// map work.
	box   map[string]any
	boxes []any
}

var batchPool = sync.Pool{New: func() any {
	return &batchState{box: make(map[string]any)}
}}

// boxed returns s as an interface value, allocating the box at most
// once per distinct string per batch.
func (bs *batchState) boxed(s string) any {
	if v, ok := bs.box[s]; ok {
		return v
	}
	v := any(s)
	bs.box[s] = v
	return v
}

// grow sizes the per-tuple arrays to n and returns the zeroed decision
// slots.
func (bs *batchState) grow(n int) []*Decision {
	if cap(bs.decs) < n {
		bs.decs = make([]*Decision, n)
		bs.keyOff = make([]int32, n)
		bs.keyEnd = make([]int32, n)
		bs.sgens = make([]allowcache.Gen, n)
	} else {
		bs.decs = bs.decs[:n]
		for i := range bs.decs {
			bs.decs[i] = nil
		}
		bs.keyOff = bs.keyOff[:n]
		bs.keyEnd = bs.keyEnd[:n]
		bs.sgens = bs.sgens[:n]
	}
	return bs.decs
}

// release drops every reference the batch held (decisions, params)
// while keeping the backing arrays for the next batch, then returns the
// state to the pool.
func (bs *batchState) release() {
	for i := range bs.decs {
		bs.decs[i] = nil
	}
	bs.decs = bs.decs[:0]
	bs.keys = bs.keys[:0]
	clear(bs.box)
	clear(bs.boxes)
	bs.boxes = bs.boxes[:0]
	clear(bs.group)
	bs.group = bs.group[:0]
	bs.idx = bs.idx[:0]
	batchPool.Put(bs)
}

// DecideCheckBatch decides a whole batch of four-field enforcement
// tuples as one unit, returning verdicts in input order (verdicts[i]
// answers tuples[i]); the passed slice is reused when its capacity
// allows. Semantically the batch is exactly sequential DecideCheck
// calls in input order — duplicates cascade independently, denials
// never cache, and a denial that changes state (an active-security
// lock) is seen by every later tuple — but the batch amortizes
// everything around the per-tuple rule work:
//
//   - fast-path eligibility and the cache epoch are captured ONCE per
//     batch, and the whole batch is probed up front against that
//     capture, with every key encoded into one pooled buffer;
//   - the cache misses cross the drain boundary as a single work item
//     that delivers them in input order, and a single Wait settles the
//     batch; ALLOW verdicts are then stored under the pre-captured
//     epoch pair — the born-stale protocol applied per batch: any
//     mutation interleaving with the batch lands after the capture and
//     the affected entries are already stale when stored.
//
// Tracing observes a decision without changing it, but a batch work
// item records no per-decision cascade steps, so a traced tuple leaves
// the batch floor for the per-tuple cascade. A tuple is traced when it
// carries a nonzero Trace, when the trace ring has no sampler
// (trace-everything), or when it is tuple 0 of a sampled batch; the
// maximal untraced runs between traced tuples stay batch-native, in
// input order. Callers that mark only tuple 0 (wire, HTTP, the sampler)
// therefore still capture the snapshot once per batch. The batch-size
// distribution records the submitted size once per call.
//
// See DESIGN.md §5.6 and §5.7.
func (e *Engine) DecideCheckBatch(eventName string, tuples []CheckTuple, verdicts []Verdict) ([]Verdict, error) {
	verdicts = verdicts[:0]
	n := len(tuples)
	if n == 0 {
		return verdicts, nil
	}
	o := e.obs
	var t0 time.Time
	tracing, traceAll, traceFirst := false, false, false
	if o != nil {
		t0 = e.clk.Now()
		o.BatchSize.Observe(float64(n))
		if tracing = o.Traces != nil; tracing {
			traceAll = o.Sampler == nil
			traceFirst = !traceAll && o.Sampler.Sample(t0)
		}
	}
	fp := e.fp
	run := 0 // first tuple of the pending untraced run
	var err error
	for i := range tuples {
		t := &tuples[i]
		if !traceAll && t.Trace.IsZero() && (i > 0 || !traceFirst) {
			continue
		}
		if run < i {
			if verdicts, err = e.decideBatchCore(o, t0, eventName, tuples[run:i], verdicts); err != nil {
				return verdicts, err
			}
		}
		run = i + 1
		var ti time.Time
		if o != nil {
			ti = e.clk.Now()
		}
		if !tracing {
			fp.bypass.Add(1)
		}
		dec, err := e.cascade(o, ti, eventName, checkParams(t.User, t.Session, t.Operation, t.Object),
			nil, nil, 0, 0, tracing, t.Trace)
		if err != nil {
			return verdicts, err
		}
		allowed, reason := dec.Verdict()
		verdicts = append(verdicts, Verdict{Allowed: allowed, Reason: reason})
	}
	if run < n {
		verdicts, err = e.decideBatchCore(o, t0, eventName, tuples[run:], verdicts)
	}
	return verdicts, err
}

// decideBatchCore is the batch-native evaluation floor for one untraced
// run of a batch: one snapshot capture, one up-front cache probe, one
// group work item for the misses, one settle.
func (e *Engine) decideBatchCore(o *obs.Observer, t0 time.Time, eventName string, tuples []CheckTuple, verdicts []Verdict) ([]Verdict, error) {
	n := len(tuples)

	bs := batchPool.Get().(*batchState)
	defer bs.release()
	decs := bs.grow(n)

	// The one-snapshot-per-batch capture (enforced by the batchsnap vet
	// pass): eligibility and epoch are read here and nowhere inside the
	// per-tuple loops below. Every verdict of the batch is as of this
	// instant. Session generations are per-session state, not part of
	// the snapshot; they are captured per tuple, still before any
	// cascade of the batch runs.
	fp := e.fp
	// cacheable is the verdict-cache-safety shape — sole non-retaining
	// subscriber firing only cache-safe rules, no outcome listeners —
	// captured once per batch. It gates the cache probe and licenses the
	// carrier cascade mode below, because under this shape nothing
	// retains an occurrence or its params map beyond the synchronous
	// delivery.
	cacheable := e.cacheable(eventName)
	var epoch uint64
	if cacheable {
		epoch = fp.tab.Epoch()
	}

	var hits, cascades int
	if cacheable {
		var encMisses int
		for i := range tuples {
			t := &tuples[i]
			start := len(bs.keys)
			keys, fits := allowcache.AppendKey(bs.keys, eventName, t.User, t.Session, t.Operation, t.Object)
			if !fits {
				bs.keyOff[i] = fpKeyNone
				cascades++
				fp.bypass.Add(1)
				continue
			}
			sgen := fp.tab.Session(t.Session)
			if dec, hit := fp.tab.Lookup(keys[start:], epoch, sgen); hit {
				bs.keys = keys[:start] // drop the key, keep the grown buffer
				decs[i] = dec
				bs.keyOff[i] = fpKeyNone
				hits++
				continue
			}
			bs.keys = keys
			bs.keyOff[i] = int32(start)
			bs.keyEnd[i] = int32(len(keys))
			bs.sgens[i] = sgen
			cascades++
			encMisses++
		}
		if hits > 0 {
			fp.hits.Add(uint64(hits))
		}
		if encMisses > 0 {
			fp.misses.Add(uint64(encMisses))
		}
	} else {
		fp.bypass.Add(uint64(n))
		for i := range bs.keyOff {
			bs.keyOff[i] = fpKeyNone
		}
		cascades = n
	}

	if cascades > 0 {
		batch, err := e.det.NewBatch(eventName)
		if err != nil {
			return verdicts, err
		}
		if cacheable {
			bs.boxes = slices.Grow(bs.boxes, 4*n)[:4*n]
		}
		for i := range tuples {
			if decs[i] != nil {
				continue // served from the cache
			}
			dec := &Decision{}
			dec.votes = dec.vbuf[:0]
			decs[i] = dec
			t := &tuples[i]
			if cacheable {
				bs.idx = append(bs.idx, int32(i))
				bx := bs.boxes[4*i : 4*i+4]
				bx[0], bx[1] = bs.boxed(t.User), bs.boxed(t.Session)
				bx[2], bx[3] = bs.boxed(t.Operation), bs.boxed(t.Object)
				continue
			}
			// One owned params map per decision, exactly as the
			// per-tuple cascade builds; ownership transfers to the
			// detector with the group.
			bs.group = append(bs.group, event.Params{
				"user": bs.boxed(t.User), "session": bs.boxed(t.Session),
				"operation": bs.boxed(t.Operation), "object": bs.boxed(t.Object),
				DecisionKey: dec,
			})
		}
		if cacheable {
			// Carrier mode: the group delivers through one reused
			// occurrence and params map, rewritten per tuple — zero
			// per-tuple allocation on the cascade floor. The event layer
			// re-verifies the shape per delivery and degrades to fresh
			// storage if a mid-batch policy change breaks it.
			idx := bs.idx
			batch.RaiseGroupFn(len(idx), func(k int, p event.Params) {
				i := idx[k]
				bx := bs.boxes[4*i : 4*i+4]
				p["user"], p["session"] = bx[0], bx[1]
				p["operation"], p["object"] = bx[2], bx[3]
				p[DecisionKey] = decs[i]
			})
		} else {
			batch.RaiseGroupOwned(bs.group)
		}
		batch.Wait()
	}

	var allows, denies int
	for i := range decs {
		allowed, reason := decs[i].Verdict()
		if allowed {
			allows++
			if off := bs.keyOff[i]; off >= 0 {
				fp.tab.Store(bs.keys[off:bs.keyEnd[i]], decs[i], epoch, bs.sgens[i])
			}
		} else {
			denies++
		}
		verdicts = append(verdicts, Verdict{Allowed: allowed, Reason: reason})
	}
	if o != nil {
		if allows > 0 {
			o.Decisions.With(eventName, "allow").Add(float64(allows))
		}
		if denies > 0 {
			o.Decisions.With(eventName, "deny").Add(float64(denies))
		}
		// The batch is one decision round trip: its latency is observed
		// once, not once per tuple.
		o.DecisionLatency.With(eventName).Observe(e.clk.Now().Sub(t0).Seconds())
		if cascades > 0 {
			o.BatchGroups.Inc()
		}
		o.BatchFastPathHits.Add(float64(hits))
	}
	return verdicts, nil
}
