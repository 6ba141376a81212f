package sentinel

import (
	"slices"
	"sync"
	"time"

	"activerbac/internal/event"
	"activerbac/internal/obs"
)

// CheckTuple is one enforcement request of a batch: the canonical
// four-field tuple DecideCheck takes as separate arguments.
type CheckTuple struct {
	User      string
	Session   string
	Operation string
	Object    string
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
// generations, and the scope-group index. One Get/Put per batch
// amortizes every allocation the per-tuple path would pay N times.
type batchState struct {
	decs   []*Decision
	keys   []byte  // all fast-path keys of the batch, back to back
	keyOff []int32 // per tuple: offset into keys, or fpKeyNone
	keyEnd []int32 // per tuple: end of its key in keys
	sgens  []uint64

	scopes  []string         // distinct scope keys in first-appearance order
	groups  [][]event.Params // parallel to scopes: each scope's params, in input order
	gidx    [][]int32        // carrier mode: each scope's tuple indices, in input order
	groupOf map[string]int

	// slab backs the batch's Decisions when the engine shape proves no
	// decision outlives the verdict merge (cache-safe rules, no outcome
	// listeners, no fast path storing allows): one allocation reused
	// across batches instead of one Decision per tuple.
	slab []Decision

	// box interns string-to-any boxing for the batch's params maps:
	// sessions, users, operations and objects repeat heavily within a
	// batch, and boxing a string into an interface allocates every
	// time — four allocations per tuple the per-tuple path cannot
	// avoid but a batch can share. Only the submitting goroutine
	// touches the map: carrier fills run concurrently on different
	// lanes, so they read tuple i's four boxes from
	// boxes[4*i:4*i+4], written before the groups are raised.
	box   map[string]any
	boxes []any
}

var batchPool = sync.Pool{New: func() any {
	return &batchState{groupOf: make(map[string]int), box: make(map[string]any)}
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
		bs.sgens = make([]uint64, n)
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

// release drops every reference the batch held (decisions, group params)
// while keeping the backing arrays for the next batch, then returns the
// state to the pool.
func (bs *batchState) release() {
	for i := range bs.decs {
		bs.decs[i] = nil
	}
	bs.decs = bs.decs[:0]
	bs.keys = bs.keys[:0]
	bs.scopes = bs.scopes[:0]
	clear(bs.box)
	clear(bs.boxes)
	bs.boxes = bs.boxes[:0]
	for i := range bs.groups {
		g := bs.groups[i]
		for j := range g {
			g[j] = nil
		}
		bs.groups[i] = g[:0]
	}
	for i := range bs.gidx {
		bs.gidx[i] = bs.gidx[i][:0]
	}
	clear(bs.groupOf)
	batchPool.Put(bs)
}

// decSlab returns n reusable Decision slots. Callers must only hand the
// slots to cascades whose rules provably drop them at delivery end.
func (bs *batchState) decSlab(n int) []Decision {
	if cap(bs.slab) < n {
		bs.slab = make([]Decision, n)
	}
	return bs.slab[:n]
}

// DecideCheckBatch decides a whole batch of four-field enforcement
// tuples as one unit, returning verdicts in input order (verdicts[i]
// answers tuples[i]); the passed slice is reused when its capacity
// allows. Semantically each tuple is decided exactly as DecideCheck
// would — duplicates cascade independently, denials never cache — but
// the batch amortizes everything around the per-tuple rule work:
//
//   - fast-path eligibility and the cache epoch are captured ONCE per
//     batch, and the whole batch is probed up front against that
//     capture, with every key encoded into one pooled buffer;
//   - cache misses are grouped by scope key (session, else user) and
//     each group crosses its lane boundary as a single work item, in
//     first-appearance order — groups sharing a lane (notably the
//     global lane) serialize in that order, preserving the total order
//     global-scope rules, SoD oracles and temporal ticks rely on,
//     while groups on distinct lanes execute concurrently (the same
//     interleaving concurrent per-tuple callers produce);
//   - one cascade tracks every group, so a single Wait settles the
//     batch, and ALLOW verdicts are then stored under the pre-captured
//     epoch pair — the born-stale protocol applied per batch: any
//     mutation interleaving with the batch lands after the capture and
//     the affected entries are already stale when stored.
//
// Tracing interacts with batching per the observer's sampling policy
// (a batch work item records no per-decision cascade steps, so a traced
// tuple must leave the batch floor):
//
//   - trace ring without a sampler (trace-everything): the batch falls
//     back to per-tuple DecideCheck calls, each fully traced;
//   - trace ring with a sampler: a sampled batch traces exactly one
//     tuple through the full per-tuple cascade while the remainder
//     stays batch-native on the carrier fast path; an unsampled batch
//     is entirely batch-native.
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
	if o != nil {
		t0 = e.clk.Now()
	}
	if o != nil && o.Traces != nil {
		if o.Sampler == nil {
			for i := range tuples {
				t := &tuples[i]
				dec, err := e.DecideCheck(eventName, t.User, t.Session, t.Operation, t.Object)
				if err != nil {
					return verdicts, err
				}
				allowed, reason := dec.Verdict()
				verdicts = append(verdicts, Verdict{Allowed: allowed, Reason: reason})
			}
			return verdicts, nil
		}
		if o.Sampler.Sample(t0) {
			return e.decideBatchSplit(o, t0, eventName, tuples, verdicts, obs.TraceID{})
		}
	}
	return e.decideBatchCore(o, t0, eventName, tuples, verdicts, n)
}

// DecideCheckBatchTraced is DecideCheckBatch with a caller-supplied
// trace identity: the batch's first tuple runs the full per-tuple
// cascade traced under tid (resolvable at /v1/traces/{id}), the rest
// stays batch-native — the same one-tuple shape sampled batches take.
func (e *Engine) DecideCheckBatchTraced(eventName string, tuples []CheckTuple, verdicts []Verdict, tid obs.TraceID) ([]Verdict, error) {
	verdicts = verdicts[:0]
	n := len(tuples)
	if n == 0 {
		return verdicts, nil
	}
	o := e.obs
	var t0 time.Time
	if o != nil {
		t0 = e.clk.Now()
	}
	return e.decideBatchSplit(o, t0, eventName, tuples, verdicts, tid)
}

// decideBatchSplit decides tuples[0] through the traced per-tuple
// cascade and the remainder batch-native: the shape both sampled and
// client-traced batches take. The one-tuple detour shows up in the
// per-tuple decision metrics instead of the batch row; the batch-size
// distribution still records the full submitted size.
func (e *Engine) decideBatchSplit(o *obs.Observer, t0 time.Time, eventName string, tuples []CheckTuple, verdicts []Verdict, tid obs.TraceID) ([]Verdict, error) {
	t := &tuples[0]
	dec, err := e.DecideCheckTraced(eventName, t.User, t.Session, t.Operation, t.Object, tid)
	if err != nil {
		return verdicts, err
	}
	allowed, reason := dec.Verdict()
	verdicts = append(verdicts, Verdict{Allowed: allowed, Reason: reason})
	if len(tuples) == 1 {
		if o != nil {
			o.BatchSize.Observe(1)
		}
		return verdicts, nil
	}
	return e.decideBatchCore(o, t0, eventName, tuples[1:], verdicts, len(tuples))
}

// decideBatchCore is the batch-native evaluation floor shared by every
// entry point above: one snapshot capture, one up-front cache probe,
// scope-group lane submission, one settle. batchN is the size of the
// originally submitted batch (tuples may be a remainder after a traced
// split), recorded once into the batch-size distribution.
func (e *Engine) decideBatchCore(o *obs.Observer, t0 time.Time, eventName string, tuples []CheckTuple, verdicts []Verdict, batchN int) ([]Verdict, error) {
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
	// shape is the verdict-cache-safety shape — sole scope-marked
	// subscriber firing only cache-safe rules, no outcome listeners —
	// captured once per batch. With a fast path it gates the cache
	// probe; independently it licenses the carrier cascade mode below,
	// because under this shape nothing retains an occurrence or its
	// params map beyond the synchronous delivery.
	shape := e.cacheable(eventName)
	cacheable := fp != nil && shape
	var epoch uint64
	if cacheable {
		epoch = fp.epoch.Load()
	}

	var hits, cascades int
	if cacheable {
		var encMisses int
		for i := range tuples {
			t := &tuples[i]
			start := len(bs.keys)
			keys, fits := appendFPKey(bs.keys, eventName, t.User, t.Session, t.Operation, t.Object)
			if !fits {
				bs.keyOff[i] = fpKeyNone
				cascades++
				fp.bypass.Add(1)
				continue
			}
			sgen := fp.sgen(t.Session)
			if dec, hit := fp.lookup(keys[start:], epoch, sgen); hit {
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
		if fp != nil {
			fp.bypass.Add(uint64(n))
		}
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
		// Under the no-retention shape, decisions of a fast-path-less
		// engine die at the verdict merge below, so the whole batch can
		// vote into one reused slab; a fast path stores ALLOW decisions
		// past the batch, so they must be individually allocated.
		var slab []Decision
		if shape && fp == nil {
			slab = bs.decSlab(n)
		}
		if shape {
			bs.boxes = slices.Grow(bs.boxes, 4*n)[:4*n]
		}
		for i := range tuples {
			if decs[i] != nil {
				continue // served from the cache
			}
			var dec *Decision
			if slab != nil {
				dec = &slab[i]
				*dec = Decision{}
			} else {
				dec = &Decision{}
			}
			dec.votes = dec.vbuf[:0]
			decs[i] = dec
			t := &tuples[i]
			scope := t.Session
			if scope == "" {
				scope = t.User
			}
			gi, ok := bs.groupOf[scope]
			if !ok {
				gi = len(bs.scopes)
				bs.groupOf[scope] = gi
				bs.scopes = append(bs.scopes, scope)
				if gi >= len(bs.groups) {
					bs.groups = append(bs.groups, nil)
					bs.gidx = append(bs.gidx, nil)
				}
			}
			if shape {
				bs.gidx[gi] = append(bs.gidx[gi], int32(i))
				bx := bs.boxes[4*i : 4*i+4]
				bx[0], bx[1] = bs.boxed(t.User), bs.boxed(t.Session)
				bx[2], bx[3] = bs.boxed(t.Operation), bs.boxed(t.Object)
				continue
			}
			// One owned params map per decision, exactly as the
			// per-tuple cascade builds; ownership transfers to the
			// detector with the group.
			bs.groups[gi] = append(bs.groups[gi], event.Params{
				"user": bs.boxed(t.User), "session": bs.boxed(t.Session),
				"operation": bs.boxed(t.Operation), "object": bs.boxed(t.Object),
				DecisionKey: dec,
			})
		}
		if shape {
			// Carrier mode: each group delivers through one reused
			// occurrence and params map, rewritten per tuple — zero
			// per-tuple allocation on the cascade floor. The event layer
			// re-verifies the shape per delivery and degrades to fresh
			// storage if a mid-batch policy change breaks it.
			for gi, scope := range bs.scopes {
				idx := bs.gidx[gi]
				batch.RaiseGroupFn(scope, len(idx), func(k int, p event.Params) {
					i := idx[k]
					bx := bs.boxes[4*i : 4*i+4]
					p["user"], p["session"] = bx[0], bx[1]
					p["operation"], p["object"] = bx[2], bx[3]
					p[DecisionKey] = decs[i]
				})
			}
		} else {
			for gi, scope := range bs.scopes {
				batch.RaiseGroupOwned(bs.groups[gi], scope)
			}
		}
		batch.Wait()
	}

	var allows, denies int
	for i := range decs {
		allowed, reason := decs[i].Verdict()
		if allowed {
			allows++
			if off := bs.keyOff[i]; off >= 0 {
				fp.store(bs.keys[off:bs.keyEnd[i]], decs[i], epoch, bs.sgens[i])
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
		o.BatchSize.Observe(float64(batchN))
		o.BatchGroups.Add(float64(len(bs.scopes)))
		o.BatchFastPathHits.Add(float64(hits))
	}
	return verdicts, nil
}
