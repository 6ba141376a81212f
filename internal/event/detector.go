package event

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"activerbac/internal/clock"
	"activerbac/internal/obs"
)

// Instruments carries the detector's optional metric hooks. A nil
// *Instruments on the detector disables them all behind one pointer
// check; individual fields may also be nil.
type Instruments struct {
	// LaneWait observes the queued time, in seconds, of each drained
	// work item: the wait for the detector's one drain.
	LaneWait func(seconds float64)
	// OperatorMatch counts composite detections by operator kind.
	OperatorMatch func(operator string)
}

// Handler is invoked for every detected occurrence of a subscribed event.
// Handlers run on the detector's drain and must not block; they may call
// Raise, RaiseFrom, Define, or Subscribe (cascaded events are
// queued and processed after the current propagation completes).
type Handler func(*Occurrence)

// node is a vertex in the event graph. Node *state* (pending occurrence
// buffers) is only touched by the drain; node *structure* (parent
// lists) is guarded by the detector's structure lock.
type node interface {
	name() string
	// kind names the node's operator for traces and metrics
	// ("primitive", "SEQ", "AND", ...).
	kind() string
	// process handles an occurrence delivered from src (one of the
	// node's declared children). Runs on the drain only.
	process(src node, occ *Occurrence, d *Detector)
	// addParent subscribes an operator node to this node's detections.
	// Caller holds the detector's structure lock.
	addParent(p node)
	// parentsOf snapshots the parent list. Caller holds the structure
	// lock (read side suffices).
	parentsOf() []node
}

// baseNode carries the name and parent list shared by all node kinds.
type baseNode struct {
	nm      string
	parents []node
}

func (b *baseNode) name() string { return b.nm }

func (b *baseNode) addParent(p node) {
	for _, q := range b.parents {
		if q == p {
			return
		}
	}
	b.parents = append(b.parents, p)
}

func (b *baseNode) parentsOf() []node {
	out := make([]node, len(b.parents))
	copy(out, b.parents)
	return out
}

// primitiveNode is a leaf raised directly via Detector.Raise.
type primitiveNode struct {
	baseNode
}

func (n *primitiveNode) kind() string { return "primitive" }

func (n *primitiveNode) process(node, *Occurrence, *Detector) {
	// Primitives have no children; nothing delivers to them.
}

// subEntry is one subscription. nonRetaining marks handlers that never
// keep an occurrence past the callback (rule-pool subscriptions); only
// such a sole subscriber lets the detector recycle occurrences.
type subEntry struct {
	h            Handler
	nonRetaining bool
}

// graphView is the immutable read-side projection of the event graph.
// Every structural mutation (define, subscribe) rebuilds one under smu
// and publishes it through an atomic pointer, so the raise/deliver hot
// path — handler fanout, parent propagation — is a single pointer load
// with zero lock traffic and zero per-delivery allocation. Fields must
// never be written after Store; the builder is publishLocked.
//
// rbacvet:snapshot
type graphView struct {
	nodes    map[string]node
	handlers map[string][]Handler // per event, subscription order
	parents  map[string][]node    // per event; absent = no parents
	info     map[string]eventInfo
}

// eventInfo carries the per-event facts the decision fast path needs:
// the primitive node (nil for composites), whether the node feeds
// composite operators, and — when the event has exactly one subscriber
// and it is non-retaining — that subscription's id (else -1).
type eventInfo struct {
	prim             *primitiveNode
	hasParents       bool
	soleNonRetaining int
}

// Detector owns an event graph and propagates occurrences through one
// caller-drains FIFO queue — the single event-detector thread of the
// paper's Sentinel+ system. Every occurrence, cascaded raise, deferred
// step and temporal tick runs on that drain, in queue order.
type Detector struct {
	clk clock.Clock

	// smu guards graph structure: the name maps, subscriber maps and
	// node parent lists. It is never held while user code runs.
	smu    sync.RWMutex
	nodes  map[string]node
	subs   map[string]map[int]subEntry
	anon   int
	subSeq int

	// view is the published read-side snapshot of the structure above;
	// never nil after New. Readers load it once and never take smu.
	view atomic.Pointer[graphView]
	// chook, when set, runs after every view publication (the decision
	// fast path invalidates its cache through it).
	chook func()
	// occPoolOK gates occurrence recycling. The engine enables it only
	// when every subscriber is known not to retain occurrences past the
	// callback (see SetOccurrencePooling).
	occPoolOK atomic.Bool

	// qmu guards the drain queue and drain ownership (draining); quiet
	// is broadcast whenever a drain completes. See drain.go.
	qmu      sync.Mutex
	quiet    *sync.Cond
	queue    []item
	draining bool

	// stamp is the boundary between the rule firings of the drain item
	// in progress: the end of its latest firing, zero before its first
	// (FiringStart, FiringEnd). Only the drain touches it: drain zeroes
	// it as each item starts, and rule firings run only inside drain
	// items, so — like operator buffers — it needs no lock.
	stamp time.Time

	seq      atomic.Uint64
	raised   atomic.Uint64
	detected atomic.Uint64
	maxCade  int // cascade safety bound per drain

	// ins holds the optional metric hooks; nil (the default) is the
	// zero-overhead path. Set before traffic starts (SetInstruments).
	ins *Instruments
}

// New returns a Detector whose temporal operators schedule on clk.
func New(clk clock.Clock) *Detector {
	d := &Detector{
		clk:     clk,
		nodes:   make(map[string]node),
		subs:    make(map[string]map[int]subEntry),
		maxCade: 1 << 20,
	}
	d.quiet = sync.NewCond(&d.qmu)
	d.publishLocked()
	return d
}

// publishLocked rebuilds the read-side graphView from the canonical
// structure and publishes it. Caller holds smu (write side); New calls
// it before the detector escapes.
func (d *Detector) publishLocked() {
	v := &graphView{
		nodes:    make(map[string]node, len(d.nodes)),
		handlers: make(map[string][]Handler, len(d.subs)),
		parents:  make(map[string][]node, len(d.nodes)),
		info:     make(map[string]eventInfo, len(d.nodes)),
	}
	for name, n := range d.nodes {
		v.nodes[name] = n
		ps := n.parentsOf()
		if len(ps) > 0 {
			v.parents[name] = ps
		}
		inf := eventInfo{hasParents: len(ps) > 0, soleNonRetaining: -1}
		inf.prim, _ = n.(*primitiveNode)
		subs := d.subs[name]
		ids := make([]int, 0, len(subs))
		for id := range subs {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		if len(ids) > 0 {
			hs := make([]Handler, len(ids))
			for i, id := range ids {
				hs[i] = subs[id].h
			}
			v.handlers[name] = hs
		}
		if len(ids) == 1 && subs[ids[0]].nonRetaining {
			inf.soleNonRetaining = ids[0]
		}
		v.info[name] = inf
	}
	d.view.Store(v)
	if h := d.chook; h != nil {
		h()
	}
}

// SetChangeHook installs a callback run after every structural change
// (event definition, subscription) publishes a new graph view. The hook
// runs under the structure lock and must not block or call back into
// the detector; the decision fast path uses it to bump its invalidation
// epoch. Install once during engine assembly.
func (d *Detector) SetChangeHook(fn func()) {
	d.smu.Lock()
	d.chook = fn
	d.smu.Unlock()
}

// SetOccurrencePooling enables recycling of primitive occurrences whose
// event has no composite parents and exactly one non-retaining
// subscriber. The caller asserts that subscriber (and any outcome
// consumers behind it) extracts what it needs during the callback and
// never retains the *Occurrence; the engine turns this on only while
// the rule pool has no outcome listeners registered.
func (d *Detector) SetOccurrencePooling(ok bool) { d.occPoolOK.Store(ok) }

// Clock returns the clock the detector schedules temporal events on.
func (d *Detector) Clock() clock.Clock { return d.clk }

// FiringStart returns the start of a rule firing: the end of the drain
// item's previous firing, or a fresh clock reading for its first, so
// each firing after the first costs no read here. Call it only from
// the drain (a handler).
func (d *Detector) FiringStart() time.Time {
	if d.stamp.IsZero() {
		d.stamp = d.clk.Now()
	}
	return d.stamp
}

// FiringEnd reads the clock once to end a rule firing begun with
// FiringStart; the reading is also the start of the item's next
// firing. Together they make an item's firings tile its span: the
// dispatch between two firings counts in the later one, and the time
// between two items in none. Call it only from the drain.
func (d *Detector) FiringEnd() time.Time {
	d.stamp = d.clk.Now()
	return d.stamp
}

// SetInstruments installs the metric hooks. Call once during engine
// assembly, before traffic: the drain reads the pointer without
// synchronization.
func (d *Detector) SetInstruments(ins *Instruments) { d.ins = ins }

// DefinePrimitive registers a primitive (simple) event name. It is
// idempotent for primitives but fails if the name is already bound to a
// composite event.
func (d *Detector) DefinePrimitive(name string) error {
	d.smu.Lock()
	defer d.smu.Unlock()
	if err := d.definePrimitiveLocked(name); err != nil {
		return err
	}
	d.publishLocked()
	return nil
}

func (d *Detector) definePrimitiveLocked(name string) error {
	if name == "" {
		return fmt.Errorf("event: empty event name")
	}
	if n, ok := d.nodes[name]; ok {
		if _, isPrim := n.(*primitiveNode); isPrim {
			return nil
		}
		return fmt.Errorf("event: %q already defined as a composite event", name)
	}
	d.nodes[name] = &primitiveNode{baseNode{nm: name}}
	return nil
}

// MustPrimitive is DefinePrimitive that panics on error.
func (d *Detector) MustPrimitive(name string) {
	if err := d.DefinePrimitive(name); err != nil {
		panic(err)
	}
}

// Defined reports whether name is a registered event (primitive or
// composite).
func (d *Detector) Defined(name string) bool {
	_, ok := d.view.Load().info[name]
	return ok
}

// Events returns the names of all defined events, sorted.
func (d *Detector) Events() []string {
	v := d.view.Load()
	out := make([]string, 0, len(v.nodes))
	for n := range v.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SoleNonRetainingSub reports whether name is a primitive event with no
// composite parents and exactly one non-retaining subscriber — the
// shape the decision fast path can cache — and, when so, that
// subscription's id (so the caller can confirm the subscriber's
// identity with its owner).
func (d *Detector) SoleNonRetainingSub(name string) (id int, ok bool) {
	inf, defined := d.view.Load().info[name]
	if !defined || inf.prim == nil || inf.hasParents || inf.soleNonRetaining < 0 {
		return 0, false
	}
	return inf.soleNonRetaining, true
}

// Subscribe registers h to run on every detection of the named event and
// returns a subscription id for Unsubscribe. The event must already be
// defined. A plain subscription may retain occurrences; use
// SubscribeNonRetaining for handlers that never do.
func (d *Detector) Subscribe(name string, h Handler) (int, error) {
	return d.subscribe(name, h, false)
}

// SubscribeNonRetaining registers h like Subscribe but asserts that h
// extracts what it needs during the callback and never keeps the
// *Occurrence or its Params afterwards. As an event's sole subscriber it
// licenses occurrence pooling and batch carrier delivery.
func (d *Detector) SubscribeNonRetaining(name string, h Handler) (int, error) {
	return d.subscribe(name, h, true)
}

func (d *Detector) subscribe(name string, h Handler, nonRetaining bool) (int, error) {
	d.smu.Lock()
	defer d.smu.Unlock()
	if _, ok := d.nodes[name]; !ok {
		return 0, fmt.Errorf("event: subscribe to undefined event %q", name)
	}
	d.subSeq++
	id := d.subSeq
	m := d.subs[name]
	if m == nil {
		m = make(map[int]subEntry)
		d.subs[name] = m
	}
	m[id] = subEntry{h: h, nonRetaining: nonRetaining}
	d.publishLocked()
	return id, nil
}

// Unsubscribe removes a subscription made with Subscribe. Unknown ids are
// ignored.
func (d *Detector) Unsubscribe(name string, id int) {
	d.smu.Lock()
	defer d.smu.Unlock()
	if m, ok := d.subs[name]; ok {
		delete(m, id)
		d.publishLocked()
	}
}

// ErrUndefined is wrapped by the error of a raise of an event the
// detector does not define.
var ErrUndefined = errors.New("undefined event")

// resolvePrimitive looks up name and checks it is raisable.
func (d *Detector) resolvePrimitive(name string) (*primitiveNode, error) {
	inf, ok := d.view.Load().info[name]
	if !ok {
		return nil, fmt.Errorf("event: raise of %w %q", ErrUndefined, name)
	}
	if inf.prim == nil {
		return nil, fmt.Errorf("event: cannot raise composite event %q directly", name)
	}
	return inf.prim, nil
}

// Raise injects an occurrence of a primitive event stamped with the
// detector clock's current instant and the given parameters, then
// propagates it (and any cascaded events) to completion, unless a drain
// is already in progress — in that case the occurrence is queued behind
// it.
func (d *Detector) Raise(name string, p Params) error {
	return d.raise(name, p, nil, false)
}

// RaiseFrom raises a cascaded event from inside a handler processing
// parent: the new occurrence queues behind parent's on the one drain, so
// a RaiseSync waiting on the request does not return until it has been
// processed, and it inherits parent's decision trace (if any), recording
// a cascade step into it. Rule actions that re-enter the event system
// (role-activation fan-out, cardinality rollbacks) use this instead of
// Raise so the trace follows the whole cascade.
func (d *Detector) RaiseFrom(parent *Occurrence, name string, p Params) error {
	if parent == nil {
		return d.raise(name, p, nil, false)
	}
	if tr := parent.trace; tr != nil {
		tr.Add(d.clk.Now(), obs.StepCascade, name, "", "raised from "+parent.Event, true)
	}
	return d.raise(name, p, parent.trace, false)
}

// occPool recycles primitive occurrences on the gated hot path (no
// composite parents, sole non-retaining subscriber, pooling enabled, no
// trace); everything else allocates as before.
var occPool = sync.Pool{New: func() any { return new(Occurrence) }}

// raise is the shared raise implementation: it queues the
// occurrence-building closure on the drain. owned marks params the
// caller hands over (already private to this raise), skipping the
// defensive clone.
func (d *Detector) raise(name string, p Params, tr *obs.Trace, owned bool) error {
	prim, err := d.resolvePrimitive(name)
	if err != nil {
		return err
	}
	now := d.clk.Now()
	d.post(func() {
		d.raised.Add(1)
		params := p
		if !owned {
			params = p.Clone()
		}
		pooled := tr == nil && d.occPoolOK.Load()
		var occ *Occurrence
		if pooled {
			occ = occPool.Get().(*Occurrence)
			*occ = Occurrence{Event: name, Start: now, End: now, Params: params}
		} else {
			occ = &Occurrence{Event: name, Start: now, End: now, Params: params, trace: tr}
		}
		recyclable := d.deliver(prim, occ)
		if pooled && recyclable {
			*occ = Occurrence{}
			occPool.Put(occ)
		}
	})
	return nil
}

// MustRaise is Raise that panics on error.
func (d *Detector) MustRaise(name string, p Params) {
	if err := d.Raise(name, p); err != nil {
		panic(err)
	}
}

// RaiseSync raises a primitive event like Raise and then blocks until
// the occurrence *and every cascade it triggered* have been fully
// processed (the drain went quiet after the item and everything queued
// behind it). It is how synchronous request/response enforcement
// (CheckAccess, AddActiveRole) is built on the asynchronous rule
// machinery.
//
// RaiseSync must not be called from inside a handler — a handler runs on
// the drain, and waiting there for the drain to finish would deadlock.
// Handlers cascade with RaiseFrom (or Raise) instead.
func (d *Detector) RaiseSync(name string, p Params) error {
	return d.raiseSync(name, p, nil, false)
}

// RaiseSyncTracedOwned is RaiseSync for callers that hand over ownership
// of p, with a decision trace attached. The detector uses the map
// directly instead of cloning it; the caller must not read or write p
// after the call — the enforcement engine builds a private param map per
// decision and passes it here, eliminating the second per-request map
// allocation. A non-nil tr records a step for every delivery, operator
// match, rule firing and cascaded raise of the request.
func (d *Detector) RaiseSyncTracedOwned(name string, p Params, tr *obs.Trace) error {
	return d.raiseSync(name, p, tr, true)
}

func (d *Detector) raiseSync(name string, p Params, tr *obs.Trace, owned bool) error {
	if err := d.raise(name, p, tr, owned); err != nil {
		return err
	}
	d.awaitQuiet()
	return nil
}

// Quiesce blocks until the drain is idle: no queued work and no drain in
// progress — every in-flight occurrence, cascade and deferred step
// processed.
func (d *Detector) Quiesce() { d.awaitQuiet() }

// deliver assigns a sequence number to occ, runs subscribers of the
// source node's event, and propagates to parent operator nodes. Runs on
// the drain only. It reports whether the occurrence is provably dead
// after delivery — no composite parent buffered it and its sole
// subscriber is non-retaining (the rule pool's firing handler) — so the
// gated raise path can recycle it.
func (d *Detector) deliver(src node, occ *Occurrence) bool {
	occ.Seq = d.seq.Add(1)
	d.detected.Add(1)

	if occ.Constituents != nil {
		if ins := d.ins; ins != nil && ins.OperatorMatch != nil {
			ins.OperatorMatch(src.kind())
		}
	}
	if tr := occ.trace; tr != nil {
		kind, detail := obs.StepRaise, traceDetail(occ.Params)
		if occ.Constituents != nil {
			kind = obs.StepOperator
			detail = fmt.Sprintf("%s(%d constituents) %s", src.kind(), len(occ.Constituents), detail)
		}
		tr.Add(occ.End, kind, occ.Event, "", detail, true)
	}

	v := d.view.Load()
	nm := src.name()
	for _, h := range v.handlers[nm] {
		h(occ)
	}
	parents := v.parents[nm]
	if len(parents) == 0 {
		return v.info[nm].soleNonRetaining >= 0
	}
	for _, p := range parents {
		p.process(src, occ, d)
	}
	return false
}

// traceDetail renders an occurrence's parameters for a trace step,
// skipping internal carrier keys (leading underscore, e.g. the
// travelling Decision) whose values are pointers with no stable
// rendering.
func traceDetail(p Params) string {
	if len(p) == 0 {
		return "{}"
	}
	vis := make(Params, len(p))
	for k, v := range p {
		if len(k) > 0 && k[0] == '_' {
			continue
		}
		vis[k] = v
	}
	return vis.String()
}

// Stats reports cumulative detector counters.
type Stats struct {
	Raised   uint64 // primitive occurrences injected via Raise
	Detected uint64 // all occurrences, primitive and composite
	Events   int    // defined event count
	Queued   int    // work items waiting for the drain right now
}

// Stats returns a snapshot of the detector's counters. Counter reads are
// not synchronized with in-flight drains; call it when the system is
// quiescent (tests, benchmarks) for exact values.
func (d *Detector) Stats() Stats {
	events := len(d.view.Load().nodes)
	d.qmu.Lock()
	queued := len(d.queue)
	d.qmu.Unlock()
	return Stats{Raised: d.raised.Load(), Detected: d.detected.Load(), Events: events, Queued: queued}
}

// anonName synthesizes a unique name for an unnamed operator node; caller
// holds smu.
func (d *Detector) anonName(kind string) string {
	d.anon++
	return fmt.Sprintf("%s#%d", kind, d.anon)
}

// lookupLocked returns the named node; caller holds smu.
func (d *Detector) lookupLocked(name string) (node, error) {
	n, ok := d.nodes[name]
	if !ok {
		return nil, fmt.Errorf("event: undefined event %q", name)
	}
	return n, nil
}
