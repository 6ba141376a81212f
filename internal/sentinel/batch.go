package sentinel

import (
	"slices"
	"strings"
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

// slot is one tuple's batch scratch: its decision once known, and the
// cache key, its hash and the session generation an ALLOW is stored
// under.
type slot struct {
	dec      *Decision
	off, end int32 // the tuple's key in keys; off is fpKeyNone when none is stored
	hash     uint64
	sgen     allowcache.Gen
}

// batchState is the pooled per-batch scratch: the tuple slots, the
// shared fast-path key buffer, and the cascading tuples. One Get/Put
// per batch amortizes every allocation N separate decisions would pay,
// and a batch of one served from the cache allocates nothing, even
// when the pool hands out a fresh state.
type batchState struct {
	slots []slot
	keys  []byte    // all fast-path keys of the batch, back to back
	kbuf  [256]byte // keys' initial backing: no key allocation for a small batch

	group []event.Params // owned mode: each cascading tuple's params, in input order
	idx   []int32        // carrier mode: each cascading tuple's index, in input order

	// box interns string-to-any boxing for the batch's params maps:
	// sessions, users, operations and objects repeat heavily within a
	// batch, and boxing a string into an interface allocates every
	// time — four allocations per tuple a lone decision cannot avoid
	// but a batch can share. The submitter interns every tuple's
	// four boxes into boxes[4*i:4*i+4] before raising the group, so the
	// carrier fill — which runs on the drain, possibly another caller's
	// goroutine — only reads the slice and the serialized drain does no
	// map work. The map is made on the first cascade.
	box   map[string]any
	boxes []any

	// decs is the decision slab: under the cacheable shape each
	// cascading tuple of a batch that hands no Decision back votes on
	// a slot here, reset per batch. The verdict cache files allow
	// records, never these, so a slot is free again once the batch
	// settles — unless a delivery escaped, in which case a retained
	// occurrence may still reach it and the slab is dropped.
	decs []Decision
	rkey []byte // scratch for allow-record keys
}

var batchPool = sync.Pool{New: func() any {
	bs := &batchState{}
	bs.keys = bs.kbuf[:0]
	return bs
}}

// boxed returns s as an interface value, allocating the box at most
// once per distinct string per batch.
func (bs *batchState) boxed(s string) any {
	if v, ok := bs.box[s]; ok {
		return v
	}
	if bs.box == nil {
		bs.box = make(map[string]any)
	}
	v := any(s)
	bs.box[s] = v
	return v
}

// grow sizes the slots to n and returns them zeroed.
func (bs *batchState) grow(n int) []slot {
	if cap(bs.slots) < n {
		bs.slots = make([]slot, n)
	} else {
		bs.slots = bs.slots[:n]
		clear(bs.slots)
	}
	return bs.slots
}

// release drops every reference the batch held (decisions, params)
// while keeping the backing arrays for the next batch, then returns the
// state to the pool.
func (bs *batchState) release() {
	clear(bs.slots)
	bs.slots = bs.slots[:0]
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
// allows. It is the engine's one access-check path: DecideCheck is a
// batch of one. Semantically the batch is exactly sequential
// single-tuple decisions in input order — duplicates cascade
// independently, denials never cache, and a denial that changes state
// (an active-security lock) is seen by every later tuple — but the
// batch amortizes everything around the per-tuple rule work:
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
// distribution records the submitted size once per call; latency, the
// probe and cascade stages and the slow-decision capture are recorded
// once per untraced run.
//
// See DESIGN.md §5.4, §5.6 and §5.7.
func (e *Engine) DecideCheckBatch(eventName string, tuples []CheckTuple, verdicts []Verdict) ([]Verdict, error) {
	return e.decideBatch(eventName, tuples, verdicts[:0], nil)
}

// decideBatch is DecideCheckBatch that also hands back each tuple's
// settled Decision in decs[i] when decs is non-nil (len(decs) ==
// len(tuples)); DecideCheck reads its one Decision from there.
func (e *Engine) decideBatch(eventName string, tuples []CheckTuple, verdicts []Verdict, decs []*Decision) ([]Verdict, error) {
	n := len(tuples)
	if n == 0 {
		return verdicts, nil
	}
	o := e.obs
	t0 := e.clk.Now()
	o.BatchSize.Observe(float64(n))
	tracing := o.Traces != nil
	traceAll := tracing && o.Sampler == nil
	// The sampler is drawn only when its answer matters: a tuple 0 that
	// carries a trace id is traced anyway, and CheckHit stamps one on
	// the check its own draw picked, so every check is drawn once.
	traceFirst := tracing && !traceAll && tuples[0].Trace.IsZero() && o.Sampler.Sample(t0)
	run := 0 // first tuple of the pending untraced run
	var err error
	for i := range tuples {
		t := &tuples[i]
		if !traceAll && t.Trace.IsZero() && (i > 0 || !traceFirst) {
			continue
		}
		if run < i {
			if verdicts, err = e.decideBatchCore(t0, eventName, tuples[run:i], verdicts, subDecs(decs, run, i)); err != nil {
				return verdicts, err
			}
		}
		run = i + 1
		if !tracing {
			e.fp.bypass.Add(1)
		}
		dec, err := e.cascade(e.clk.Now(), eventName, checkParams(t.User, t.Session, t.Operation, t.Object), tracing, t.Trace)
		if err != nil {
			return verdicts, err
		}
		if decs != nil {
			decs[i] = dec
		}
		allowed, reason := dec.Verdict()
		verdicts = append(verdicts, Verdict{Allowed: allowed, Reason: reason})
		t0 = e.clk.Now() // the next run starts after this cascade
	}
	if run < n {
		verdicts, err = e.decideBatchCore(t0, eventName, tuples[run:], verdicts, subDecs(decs, run, n))
	}
	return verdicts, err
}

// subDecs is decs[lo:hi], or nil when the caller wants no decisions.
func subDecs(decs []*Decision, lo, hi int) []*Decision {
	if decs == nil {
		return nil
	}
	return decs[lo:hi]
}

// decideBatchCore is the batch-native evaluation floor for one untraced
// run of a batch, starting at t0: one snapshot capture, one up-front
// cache probe, one group work item for the misses, one settle. When
// out is non-nil it receives each tuple's settled Decision.
func (e *Engine) decideBatchCore(t0 time.Time, eventName string, tuples []CheckTuple, verdicts []Verdict, out []*Decision) ([]Verdict, error) {
	n := len(tuples)
	o := e.obs

	bs := batchPool.Get().(*batchState)
	defer bs.release()
	slots := bs.grow(n)

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
	var epoch, view uint64
	var ord byte
	probing := false
	if cacheable {
		epoch = fp.tab.Epoch()
		// The store publishes a policy view before its change hook
		// bumps the cache epoch. Serving an entry only under the view
		// it was decided from closes that window: a check that already
		// sees the new view never gets the old view's allow.
		view = e.store.Epoch()
		ord, probing = fp.ordinal(eventName)
	}

	var cascades int
	if probing {
		var hits, encMisses int
		for i := range tuples {
			switch hit, fits := e.probe(bs, &slots[i], ord, &tuples[i], epoch, view); {
			case hit:
				hits++
			case !fits:
				cascades++
				fp.bypass.Add(1)
			default:
				cascades++
				encMisses++
			}
		}
		if hits > 0 {
			fp.hits.Add(uint64(hits))
		}
		if encMisses > 0 {
			fp.misses.Add(uint64(encMisses))
		}
	} else {
		fp.bypass.Add(uint64(n))
		for i := range slots {
			slots[i].off = fpKeyNone
		}
		cascades = n
	}
	// Stage attribution: the probe is eligibility, encode and lookup;
	// the cascade is everything from there to the settle — decision
	// setup, rule matching, condition evaluation and actions (queue
	// time is also attributed to lane_wait, by the drain instrument).
	// The two stages add up to the run's decision latency.
	tEnd := e.clk.Now()
	if probing {
		o.StageFastPath.Observe(tEnd.Sub(t0).Seconds())
	}

	if cascades > 0 {
		batch, err := e.det.NewBatch(eventName)
		if err != nil {
			return verdicts, err
		}
		// The slab serves only the carrier mode, whose deliveries report
		// an escape, and only a caller that keeps no Decision.
		slab := cacheable && out == nil
		if cacheable {
			bs.boxes = slices.Grow(bs.boxes, 4*n)[:4*n]
		}
		if slab {
			bs.decs = slices.Grow(bs.decs[:0], cascades)[:cascades]
		}
		next := 0 // the next free slab slot
		for i := range tuples {
			if slots[i].dec != nil {
				continue // served from the cache
			}
			var dec *Decision
			if slab {
				dec = &bs.decs[next]
				next++
				*dec = Decision{view: view}
			} else {
				dec = &Decision{view: view}
			}
			dec.votes = dec.vbuf[:0]
			slots[i].dec = dec
			t := &tuples[i]
			if cacheable {
				bs.idx = append(bs.idx, int32(i))
				bx := bs.boxes[4*i : 4*i+4]
				bx[0], bx[1] = bs.boxed(t.User), bs.boxed(t.Session)
				bx[2], bx[3] = bs.boxed(t.Operation), bs.boxed(t.Object)
				continue
			}
			// One owned params map per decision, exactly as the traced
			// cascade builds; ownership transfers to the detector with
			// the group.
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
				p[DecisionKey] = slots[i].dec
			})
		} else {
			batch.RaiseGroupOwned(bs.group)
		}
		batch.Wait()
		if batch.Escaped() {
			// A retained occurrence may still reach a slab decision and
			// vote on it: the next batch gets a fresh slab.
			bs.decs = nil
		}
		tRaise := tEnd
		tEnd = e.clk.Now()
		o.StageCascade.Observe(tEnd.Sub(tRaise).Seconds())
	}

	var allows, denies int
	var denyReason string
	for i := range slots {
		sl := &slots[i]
		allowed, reason := sl.dec.Verdict()
		if allowed {
			allows++
			if sl.off >= 0 {
				var rec *Decision
				rec, bs.rkey = fp.allowRecord(view, sl.dec, bs.rkey)
				fp.tab.Store(bs.keys[sl.off:sl.end], sl.hash, rec, epoch, sl.sgen)
			}
		} else {
			if denies == 0 {
				denyReason = reason
			}
			denies++
		}
		verdicts = append(verdicts, Verdict{Allowed: allowed, Reason: reason})
	}
	for i := range out {
		out[i] = slots[i].dec
	}
	if cascades > 0 {
		o.BatchGroups.Inc()
	}
	e.settleRun(eventName, t0, tEnd, &tuples[0], allows, denies, denyReason)
	return verdicts, nil
}

// probe looks tuple t up in the verdict cache under the captured epoch
// and policy view; ord is the event's key byte (FastPath.ordinal). A
// hit fills sl.dec. A miss leaves the tuple's key in bs.keys and its
// span, hash and session generation in sl, for the settle's store, so
// a key is hashed once; a tuple whose fields do not fit a key (fits
// false) stores none. It is the only place the verdict cache is
// probed: decideBatchCore runs it for every tuple of an untraced run,
// CheckHit for its one check.
func (e *Engine) probe(bs *batchState, sl *slot, ord byte, t *CheckTuple, epoch, view uint64) (hit, fits bool) {
	tab := &e.fp.tab
	start := len(bs.keys)
	keys, fits := allowcache.AppendKey(append(bs.keys, ord), t.User, t.Session, t.Operation, t.Object)
	if !fits {
		sl.off = fpKeyNone
		return false, false
	}
	key := keys[start:]
	h := allowcache.Hash(key)
	sgen := tab.Session(t.Session)
	if dec, hit := tab.Lookup(key, h, epoch, sgen); hit && dec.view == view {
		bs.keys = keys[:start] // drop the key, keep the grown buffer
		sl.dec, sl.off = dec, fpKeyNone
		return true, true
	}
	bs.keys = keys
	sl.off, sl.end, sl.hash, sl.sgen = int32(start), int32(len(keys)), h, sgen
	return false, true
}

// settleRun records one settled untraced run from t0 to tEnd: the
// allow and deny counts, the run's latency — observed once, not once
// per tuple, since the run is one decision round trip — and, when the
// run is slow, one slow record scoped to its first tuple and carrying
// its first denial.
func (e *Engine) settleRun(eventName string, t0, tEnd time.Time, first *CheckTuple, allows, denies int, denyReason string) {
	o := e.obs
	if allows > 0 {
		o.Decisions.With(eventName, "allow").Add(float64(allows))
	}
	if denies > 0 {
		o.Decisions.With(eventName, "deny").Add(float64(denies))
	}
	elapsed := tEnd.Sub(t0)
	o.DecisionLatency.With(eventName).Observe(elapsed.Seconds())
	if sl := o.Slow; sl != nil && sl.Exceeds(elapsed) {
		o.SlowDecisions.Inc()
		sl.Record(obs.SlowRecord{
			At: t0, Event: eventName, Scope: strings.Clone(subject(first.User, first.Session)),
			Seconds: elapsed.Seconds(), Allowed: denies == 0, Reason: denyReason,
		})
	}
}

// CheckHit decides one access check from the verdict cache alone, when
// it can: it reports true — an allow — if DecideCheckBatch would serve
// t as an untraced cache hit, and counts the hit exactly as that batch
// of one would (batch size, fast-path hit, probe stage, decision,
// latency, slow capture). It never waits: no lock, no drain crossing.
//
// On false nothing is counted and the caller decides t with
// DecideCheckBatch. A check the trace sampler picks is a false too:
// CheckHit then stamps t.Trace with a fresh id, so that decision
// traces it without drawing the sampler a second time. A t that
// already carries a trace id, or arrives while every decision is
// traced, is a false with t unchanged.
func (e *Engine) CheckHit(eventName string, t *CheckTuple) bool {
	o := e.obs
	if !t.Trace.IsZero() || (o.Traces != nil && o.Sampler == nil) || !e.cacheable(eventName) {
		return false
	}
	ord, ok := e.fp.ordinal(eventName)
	if !ok {
		return false
	}
	t0 := e.clk.Now()
	epoch, view := e.fp.tab.Epoch(), e.store.Epoch()
	bs := batchPool.Get().(*batchState)
	defer bs.release()
	var sl slot
	if hit, _ := e.probe(bs, &sl, ord, t, epoch, view); !hit {
		return false
	}
	if o.Traces != nil && o.Sampler.Sample(t0) {
		t.Trace = obs.NewTraceID()
		return false
	}
	o.BatchSize.Observe(1)
	e.fp.hits.Add(1)
	tEnd := e.clk.Now()
	o.StageFastPath.Observe(tEnd.Sub(t0).Seconds())
	e.settleRun(eventName, t0, tEnd, t, 1, 0, "")
	return true
}
