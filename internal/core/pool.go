package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"activerbac/internal/event"
	"activerbac/internal/obs"
)

// OutcomeListener observes every rule firing; used by the audit trail
// and by active-security monitors. Listeners run on the detector's
// drain goroutine and must not block.
type OutcomeListener func(Outcome)

// ruleState wraps a Rule with pool-managed runtime state. The firing
// counters are atomic because status readers load them while the drain
// fires rules.
type ruleState struct {
	rule    Rule
	enabled bool
	order   int // insertion order, tie-break after priority
	fired   atomic.Uint64
	allowed atomic.Uint64
	denied  atomic.Uint64
	// evalNanos accumulates engine-clock time spent inside this rule
	// (conditions + branch actions, and the dispatch since the drain
	// item's previous firing: the firings of one item tile its span).
	evalNanos atomic.Uint64
}

// RuleInfo is a read-only snapshot of one rule's state.
type RuleInfo struct {
	Name        string
	On          string
	Class       Class
	Granularity Granularity
	Priority    int
	Tags        []string
	Enabled     bool
	Fired       uint64
	Allowed     uint64
	Denied      uint64
	EvalNanos   uint64 // cumulative evaluation time
	Conditions  []string
	Then        []string
	Else        []string
}

// fireTable is the published per-event firing plan: the enabled rules
// in priority order plus the facts the decision fast path needs. Fields
// are written only by the builder (publishLocked) and are immutable once
// published.
type fireTable struct {
	states []*ruleState // enabled rules only, (priority desc, order asc)
	// cacheSafe reports whether the event's decisions may be served
	// from the fast-path cache: at least one enabled rule, and every
	// enabled rule marked Rule.CacheSafe.
	cacheSafe bool
	// subID is the pool's detector subscription id for the event.
	subID int
}

// fireView is the immutable read-side projection of the rule pool,
// republished by every mutation and read lock-free (one atomic load,
// zero allocation) by the firing hot path.
//
// rbacvet:snapshot
type fireView struct {
	byEvent   map[string]*fireTable
	listeners []OutcomeListener
}

// Pool holds the active authorization rules of one system — the paper's
// "rule pool" — and wires them to an event detector. Mutations are
// guarded by one mutex and republish an immutable fireView; rule firing
// happens on the detector's drain, reading only the published view.
type Pool struct {
	det *event.Detector

	mu        sync.RWMutex
	rules     map[string]*ruleState
	byEvent   map[string][]*ruleState
	subIDs    map[string]int // event name -> detector subscription id
	listeners []OutcomeListener
	nextOrder int

	// view is the published projection above; never nil after NewPool.
	view atomic.Pointer[fireView]
	// chook, when set, runs after every view publication.
	chook func()
}

// NewPool returns an empty rule pool bound to det.
func NewPool(det *event.Detector) *Pool {
	p := &Pool{
		det:     det,
		rules:   make(map[string]*ruleState),
		byEvent: make(map[string][]*ruleState),
		subIDs:  make(map[string]int),
	}
	p.view.Store(&fireView{byEvent: map[string]*fireTable{}})
	return p
}

// publishLocked rebuilds the read-side fireView from the canonical rule
// maps and publishes it. Caller holds p.mu (write side).
func (p *Pool) publishLocked() {
	v := &fireView{
		byEvent:   make(map[string]*fireTable, len(p.byEvent)),
		listeners: append([]OutcomeListener(nil), p.listeners...),
	}
	for evt, states := range p.byEvent {
		t := &fireTable{cacheSafe: true, subID: p.subIDs[evt]}
		for _, st := range states {
			if !st.enabled {
				continue
			}
			t.states = append(t.states, st)
			if !st.rule.CacheSafe {
				t.cacheSafe = false
			}
		}
		if len(t.states) == 0 {
			t.cacheSafe = false
		}
		v.byEvent[evt] = t
	}
	p.view.Store(v)
	if h := p.chook; h != nil {
		h()
	}
}

// SetChangeHook installs a callback run after every rule-set or
// listener change publishes a new fire view. The hook runs under the
// pool mutex and must not block or call back into the pool; the
// decision fast path uses it to bump its invalidation epoch. Install
// once during engine assembly.
func (p *Pool) SetChangeHook(fn func()) {
	p.mu.Lock()
	p.chook = fn
	p.publishLocked()
	p.mu.Unlock()
}

// CacheVerdictSafe reports whether evt's ALLOW decisions may be served
// from the fast-path cache: the pool's own subscription (confirmed by
// subID, which the caller obtained from the detector as the event's
// sole subscriber) fires at least one rule, every enabled rule is
// CacheSafe, and no outcome listener (audit trail) observes firings.
func (p *Pool) CacheVerdictSafe(evt string, subID int) bool {
	v := p.view.Load()
	if len(v.listeners) != 0 {
		return false
	}
	t := v.byEvent[evt]
	return t != nil && t.cacheSafe && t.subID == subID
}

// ListenerCount reports the number of registered outcome listeners.
func (p *Pool) ListenerCount() int {
	return len(p.view.Load().listeners)
}

// Detector returns the event detector the pool fires on.
func (p *Pool) Detector() *event.Detector { return p.det }

// OnOutcome registers a listener for every rule firing.
func (p *Pool) OnOutcome(l OutcomeListener) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.listeners = append(p.listeners, l)
	p.publishLocked()
}

// Add inserts a rule. The rule's On event must be defined in the
// detector and the rule name must be unused.
func (p *Pool) Add(r Rule) error {
	if r.Name == "" {
		return fmt.Errorf("core: rule with empty name")
	}
	if r.On == "" {
		return fmt.Errorf("core: rule %q has no On event", r.Name)
	}
	if !p.det.Defined(r.On) {
		return fmt.Errorf("core: rule %q triggers on undefined event %q", r.Name, r.On)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.rules[r.Name]; dup {
		return fmt.Errorf("core: duplicate rule name %q", r.Name)
	}
	st := &ruleState{rule: r, enabled: !r.Disabled, order: p.nextOrder}
	p.nextOrder++
	p.rules[r.Name] = st
	p.byEvent[r.On] = insertOrdered(p.byEvent[r.On], st)

	if _, subscribed := p.subIDs[r.On]; !subscribed {
		evt := r.On
		// The firing handler never keeps the occurrence; outcome
		// listeners that do are tracked separately (CacheVerdictSafe,
		// the engine's pooling gate).
		id, err := p.det.SubscribeNonRetaining(evt, func(o *event.Occurrence) { p.fire(evt, o) })
		if err != nil {
			// Undo the insert; Defined was checked above so this is
			// unexpected, but keep the pool consistent.
			delete(p.rules, r.Name)
			p.byEvent[r.On] = removeRule(p.byEvent[r.On], st)
			return err
		}
		p.subIDs[evt] = id
	}
	p.publishLocked()
	return nil
}

// MustAdd is Add that panics on error.
func (p *Pool) MustAdd(r Rule) {
	if err := p.Add(r); err != nil {
		panic(err)
	}
}

// insertOrdered keeps the slice sorted by (priority desc, order asc).
func insertOrdered(rules []*ruleState, st *ruleState) []*ruleState {
	i := sort.Search(len(rules), func(i int) bool {
		if rules[i].rule.Priority != st.rule.Priority {
			return rules[i].rule.Priority < st.rule.Priority
		}
		return rules[i].order > st.order
	})
	rules = append(rules, nil)
	copy(rules[i+1:], rules[i:])
	rules[i] = st
	return rules
}

func removeRule(rules []*ruleState, st *ruleState) []*ruleState {
	for i, r := range rules {
		if r == st {
			return append(rules[:i], rules[i+1:]...)
		}
	}
	return rules
}

// Remove deletes a rule by name. Removing an unknown rule is an error.
func (p *Pool) Remove(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.rules[name]
	if !ok {
		return fmt.Errorf("core: remove of unknown rule %q", name)
	}
	delete(p.rules, name)
	p.byEvent[st.rule.On] = removeRule(p.byEvent[st.rule.On], st)
	p.publishLocked()
	return nil
}

// RemoveByTag deletes every rule carrying tag and returns how many were
// removed. This is the regeneration primitive: the generator tags each
// rule with its originating role, so a policy change for one role
// removes and re-adds only that role's rules.
func (p *Pool) RemoveByTag(tag string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for name, st := range p.rules {
		if st.rule.HasTag(tag) {
			delete(p.rules, name)
			p.byEvent[st.rule.On] = removeRule(p.byEvent[st.rule.On], st)
			n++
		}
	}
	if n > 0 {
		p.publishLocked()
	}
	return n
}

// SetEnabledByTag enables or disables every rule carrying tag; returns
// the number of rules affected.
func (p *Pool) SetEnabledByTag(tag string, enabled bool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, st := range p.rules {
		if st.rule.HasTag(tag) {
			st.enabled = enabled
			n++
		}
	}
	if n > 0 {
		p.publishLocked()
	}
	return n
}

// Len reports the number of rules in the pool.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.rules)
}

// Get returns a snapshot of one rule.
func (p *Pool) Get(name string) (RuleInfo, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st, ok := p.rules[name]
	if !ok {
		return RuleInfo{}, false
	}
	return st.info(), true
}

// Snapshot returns read-only info for every rule, sorted by name.
func (p *Pool) Snapshot() []RuleInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]RuleInfo, 0, len(p.rules))
	for _, st := range p.rules {
		out = append(out, st.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (st *ruleState) info() RuleInfo {
	r := st.rule
	conds := make([]string, len(r.When))
	for i, c := range r.When {
		conds[i] = c.Desc
	}
	then := make([]string, len(r.Then))
	for i, a := range r.Then {
		then[i] = a.Desc
	}
	els := make([]string, len(r.Else))
	for i, a := range r.Else {
		els[i] = a.Desc
	}
	return RuleInfo{
		Name: r.Name, On: r.On, Class: r.Class, Granularity: r.Granularity,
		Priority: r.Priority, Tags: append([]string(nil), r.Tags...),
		Enabled: st.enabled,
		Fired:   st.fired.Load(), Allowed: st.allowed.Load(), Denied: st.denied.Load(),
		EvalNanos:  st.evalNanos.Load(),
		Conditions: conds, Then: then, Else: els,
	}
}

// fire runs every enabled rule bound to evt against occurrence o, in
// priority order. Runs on the detector's drain; the published fire view
// makes it one atomic load with no locking and no per-firing
// allocation.
func (p *Pool) fire(evt string, o *event.Occurrence) {
	v := p.view.Load()
	t := v.byEvent[evt]
	if t == nil {
		return
	}
	if len(v.listeners) == 0 {
		for _, st := range t.states {
			p.runRule(st, o)
		}
		return
	}
	for _, st := range t.states {
		out := p.runRule(st, o)
		for _, l := range v.listeners {
			l(out)
		}
	}
}

// runRule evaluates one rule against an occurrence. When the
// occurrence carries a decision trace, every condition evaluation, the
// branch verdict and every action record a step into it (the nil check
// is the entire untraced path). Its timing shares clock reads with the
// drain item's other firings: it starts where the previous one ended
// (Detector.FiringStart) and reads the clock once, at its end.
func (p *Pool) runRule(st *ruleState, o *event.Occurrence) Outcome {
	r := &st.rule
	tr := o.Trace()
	out := Outcome{Rule: r.Name, Event: o, Allowed: true, At: p.det.FiringStart()}
	for _, c := range r.When {
		ok, err := c.Eval(o)
		if tr != nil {
			detail := c.Desc
			if err != nil {
				detail += ": " + err.Error()
			}
			tr.Add(out.At, obs.StepCondition, o.Event, r.Name, detail, ok && err == nil)
		}
		if err != nil {
			out.Allowed = false
			out.FailedCond = c.Desc
			out.CondErr = err
			break
		}
		if !ok {
			out.Allowed = false
			out.FailedCond = c.Desc
			break
		}
	}
	branch, branchName := r.Then, "then"
	if !out.Allowed {
		branch, branchName = r.Else, "else"
	}
	if tr != nil {
		tr.Add(out.At, obs.StepRule, o.Event, r.Name, branchName, out.Allowed)
	}
	for _, a := range branch {
		err := a.Run(o)
		if tr != nil {
			detail := a.Desc
			if err != nil {
				detail += ": " + err.Error()
			}
			tr.Add(out.At, obs.StepAction, o.Event, r.Name, detail, err == nil)
		}
		if err != nil {
			out.ActionErr = err
			break
		}
	}

	st.fired.Add(1)
	if out.Allowed {
		st.allowed.Add(1)
	} else {
		st.denied.Add(1)
	}
	// out.At is where this firing began on the drain item's clock
	// readings, so the delta is its full window.
	st.evalNanos.Add(uint64(p.det.FiringEnd().Sub(out.At)))
	return out
}
