package sentinel

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"activerbac/internal/allowcache"
	"activerbac/internal/clock"
	"activerbac/internal/core"
	"activerbac/internal/event"
	"activerbac/internal/obs"
	"activerbac/internal/rbac"
)

// DecisionKey is the occurrence parameter under which a Decision travels
// with an enforcement request. Rules vote on the decision from their
// Then/Else actions; the requester reads the verdict after the cascade
// settles.
const DecisionKey = "_decision"

// Vote is one rule's verdict on a decision.
type Vote struct {
	Rule   string
	Allow  bool
	Reason string
}

// Decision accumulates rule verdicts for one enforcement request. It is
// deny-biased twice over: any deny vote wins over any number of allows,
// and a request no rule voted on at all is denied (no applicable rule —
// fail closed).
type Decision struct {
	mu    sync.Mutex
	votes []Vote
	// vbuf is inline backing for votes: Decide points votes at it so
	// the common few-vote cascade records verdicts without a second
	// allocation. Access only through votes, under mu.
	vbuf   [4]Vote
	result any
	trace  *obs.Trace
}

// Trace returns the decision's cascade trace, or nil when tracing was
// off for this request. The trace is complete (every step of the
// settled cascade recorded) by the time Decide returns the decision.
func (d *Decision) Trace() *obs.Trace {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.trace
}

// SetResult attaches a payload to the decision (e.g. the session id a
// createSession rule produced).
func (d *Decision) SetResult(v any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.result = v
}

// Result returns the payload attached by SetResult, or nil.
func (d *Decision) Result() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.result
}

// Allow records an allowing vote from rule.
func (d *Decision) Allow(rule string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.votes = append(d.votes, Vote{Rule: rule, Allow: true})
}

// Deny records a denying vote from rule with a human-readable reason
// (the paper's "raise error ..." alternative actions).
func (d *Decision) Deny(rule, reason string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.votes = append(d.votes, Vote{Rule: rule, Allow: false, Reason: reason})
}

// Allowed reports the aggregate verdict.
func (d *Decision) Allowed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.votes) == 0 {
		return false
	}
	for _, v := range d.votes {
		if !v.Allow {
			return false
		}
	}
	return true
}

// Votes returns a copy of the recorded votes in voting order.
func (d *Decision) Votes() []Vote {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Vote(nil), d.votes...)
}

// Reason returns the first deny reason, or "" when allowed. A voteless
// decision reports "no applicable rule".
func (d *Decision) Reason() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.votes) == 0 {
		return "no applicable rule"
	}
	for _, v := range d.votes {
		if !v.Allow {
			return v.Reason
		}
	}
	return ""
}

// Verdict reports the aggregate verdict and the matching deny reason
// under one lock acquisition, so a vote recorded between the two reads
// cannot produce an inconsistent pair (an allow with a deny reason, or
// vice versa). Reason is "" when allowed.
func (d *Decision) Verdict() (allowed bool, reason string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.votes) == 0 {
		return false, "no applicable rule"
	}
	for _, v := range d.votes {
		if !v.Allow {
			return false, v.Reason
		}
	}
	return true, ""
}

// Err converts a denial into an error (nil when allowed).
func (d *Decision) Err() error {
	allowed, reason := d.Verdict()
	if allowed {
		return nil
	}
	return fmt.Errorf("sentinel: denied: %s", reason)
}

// String renders the decision for logs.
func (d *Decision) String() string {
	allowed, reason := d.Verdict()
	if allowed {
		return "ALLOW"
	}
	return "DENY (" + reason + ")"
}

// DecisionOf extracts the Decision travelling with an occurrence, if
// any. Rule actions use it to vote.
func DecisionOf(o *event.Occurrence) (*Decision, bool) {
	if o == nil || o.Params == nil {
		return nil, false
	}
	dec, ok := o.Params[DecisionKey].(*Decision)
	return dec, ok
}

// Engine is the assembled Sentinel+ system: a clock, an event detector,
// an OWTE rule pool, an RBAC store and an external monitor, wired
// together. It is the substrate everything above (rule generation,
// enforcement facade, server) runs on.
type Engine struct {
	clk     clock.Clock
	det     *event.Detector
	pool    *core.Pool
	store   *rbac.Store
	monitor *ExternalMonitor
	env     *Env
	obs     *obs.Observer // nil = observability off
	fp      *FastPath

	// pushEpoch counts every change that can invalidate a cached
	// verdict anywhere: unlike the store's policy epoch it also bumps
	// on session-grade mutations (role drops, session deletes) and on
	// detector/rule-pool changes. It is what epoch-push subscribers and
	// embedded client caches key on.
	pushEpoch atomic.Uint64
	// pushHook, when set, is called (under the mutating component's
	// lock — it must not block) after every pushEpoch bump with the new
	// value; the wire server fans it out to subscribers.
	pushHook atomic.Pointer[func(uint64)]
}

// EngineOption configures a new Engine.
type EngineOption func(*engineConfig)

type engineConfig struct {
	observer *obs.Observer
}

// WithLanes is kept for callers that still pass a lane count.
//
// Deprecated: ignored; enforcement runs on one drain.
func WithLanes(int) EngineOption { return func(*engineConfig) {} }

// WithFastPath is kept for callers that still ask for the fast path.
//
// Deprecated: ignored; every engine runs the decision fast path.
func WithFastPath() EngineOption { return func(*engineConfig) {} }

// WithObserver attaches an observability bundle: the engine feeds the
// observer's drain-wait/operator instruments on the hot path, mirrors its
// counters into the registry at scrape time, and — when the observer
// carries a trace ring — records a full cascade trace per Decide. A nil
// observer (the default) keeps the zero-overhead path.
func WithObserver(o *obs.Observer) EngineOption {
	return func(c *engineConfig) { c.observer = o }
}

// NewEngine builds an empty engine on the given clock.
func NewEngine(clk clock.Clock, opts ...EngineOption) *Engine {
	var cfg engineConfig
	for _, o := range opts {
		o(&cfg)
	}
	det := event.New(clk)
	e := &Engine{
		clk:     clk,
		det:     det,
		pool:    core.NewPool(det),
		store:   rbac.NewStore(),
		monitor: NewExternalMonitor(det),
		env:     NewEnv(),
		obs:     cfg.observer,
		fp:      &FastPath{},
	}
	if o := cfg.observer; o != nil {
		det.SetInstruments(&event.Instruments{
			LaneWait: func(s float64) {
				o.LaneWait.Observe(s)
				o.StageLaneWait.Observe(s)
			},
			OperatorMatch: func(op string) { o.OperatorMatches.With(op).Inc() },
		})
		e.pool.SetRuleTiming(true)
		o.Registry.OnScrape(e.collect)
	}
	fp := e.fp
	// Change hooks. All three run under their component's writer lock
	// and only touch atomics (the push hook must honor the same
	// contract). They serve two consumers: the fast-path cache (store
	// mutations tell us whether the whole policy or one session moved;
	// rule-pool and event-graph changes invalidate wholesale) and the
	// push epoch, which bumps on every grade of change so epoch-push
	// subscribers and embedded client caches are told whenever any
	// cached verdict may have moved. The pool hook also gates occurrence
	// pooling on the absence of outcome listeners (audit retains
	// occurrences, pooling would corrupt them); it fires once at
	// install, setting the initial state.
	e.store.SetChangeHook(func(policy bool, sid rbac.SessionID) {
		if policy {
			fp.Invalidate()
		} else {
			fp.InvalidateSession(string(sid))
		}
		e.bumpPushEpoch()
	})
	det.SetChangeHook(func() {
		fp.Invalidate()
		e.bumpPushEpoch()
	})
	e.pool.SetChangeHook(func() {
		fp.Invalidate()
		det.SetOccurrencePooling(e.pool.ListenerCount() == 0)
		e.bumpPushEpoch()
	})
	return e
}

// bumpPushEpoch advances the push epoch and notifies the hook, if any.
// Called under component writer locks: atomics and non-blocking work
// only.
func (e *Engine) bumpPushEpoch() {
	epoch := e.pushEpoch.Add(1)
	if h := e.pushHook.Load(); h != nil {
		(*h)(epoch)
	}
}

// PushEpoch reports the current push epoch: a monotonic counter over
// every policy-, session-, detector- or rule-grade change that can
// invalidate a cached verdict.
func (e *Engine) PushEpoch() uint64 { return e.pushEpoch.Load() }

// SetPushHook installs fn to be called with the new epoch after every
// push-epoch bump. fn runs under the mutating component's lock and must
// not block (atomics and non-blocking channel work only). Installing
// replaces any previous hook; nil clears it.
func (e *Engine) SetPushHook(fn func(epoch uint64)) {
	if fn == nil {
		e.pushHook.Store(nil)
		return
	}
	e.pushHook.Store(&fn)
}

// FastPath returns the decision cache.
func (e *Engine) FastPath() *FastPath { return e.fp }

// cacheable reports whether eventName's ALLOW verdicts may be served
// from the fast-path cache: the detector must deliver it to exactly one
// non-retaining subscriber (no composite parents) and the pool must
// confirm that subscriber is its own, firing only CacheSafe rules with
// no outcome listeners.
func (e *Engine) cacheable(eventName string) bool {
	sub, ok := e.det.SoleNonRetainingSub(eventName)
	return ok && e.pool.CacheVerdictSafe(eventName, sub)
}

// CacheableEvent reports whether eventName's verdicts depend only on
// state the push epoch tags — the classification the fast path serves
// repeat allows under — and so are safe for an epoch-tagged client
// cache.
func (e *Engine) CacheableEvent(eventName string) bool { return e.cacheable(eventName) }

// Observer returns the engine's observability bundle (nil when off).
func (e *Engine) Observer() *obs.Observer { return e.obs }

// collect mirrors the engine's own atomic counters into the metric
// registry. Runs at scrape time only, so the hot path pays nothing for
// rule-firing or store-size metrics.
func (e *Engine) collect() {
	o := e.obs
	st := e.det.Stats()
	o.EventsRaised.Set(float64(st.Raised))
	o.EventsDetected.Set(float64(st.Detected))
	rules := e.pool.Snapshot()
	o.Rules.Set(float64(len(rules)))
	for _, r := range rules {
		o.RuleFired.With(r.Name).Set(float64(r.Fired))
		o.RuleAllowed.With(r.Name).Set(float64(r.Allowed))
		o.RuleDenied.With(r.Name).Set(float64(r.Denied))
		o.RuleEvalSeconds.With(r.Name).Set(float64(r.EvalNanos) / 1e9)
	}
	c := e.store.Count()
	o.Users.Set(float64(c.Users))
	o.Roles.Set(float64(c.Roles))
	o.Sessions.Set(float64(c.Sessions))
	o.SnapshotEpoch.Set(float64(e.store.Epoch()))
	fs := e.fp.Stats()
	o.FastPathHits.Set(float64(fs.Hits))
	o.FastPathMisses.Set(float64(fs.Misses))
	o.FastPathBypass.Set(float64(fs.Bypass))
	o.FastPathInvalidations.Set(float64(fs.Invalidations))
}

// Env returns the environmental context store.
func (e *Engine) Env() *Env { return e.env }

// Clock returns the engine clock.
func (e *Engine) Clock() clock.Clock { return e.clk }

// Detector returns the event detector.
func (e *Engine) Detector() *event.Detector { return e.det }

// Pool returns the OWTE rule pool.
func (e *Engine) Pool() *core.Pool { return e.pool }

// Store returns the RBAC store.
func (e *Engine) Store() *rbac.Store { return e.store }

// Monitor returns the external monitoring module.
func (e *Engine) Monitor() *ExternalMonitor { return e.monitor }

// Decide raises an enforcement event carrying a fresh Decision and
// blocks until the rule cascade settles, returning the verdict. The
// caller's params are not mutated. Decide always cascades: the
// fast-path cache serves only the four-field tuple of DecideCheck and
// DecideCheckBatch. Which requests are traced is the observer's call:
// every one when a trace ring is configured without a sampler, the
// sampled fraction otherwise.
func (e *Engine) Decide(eventName string, params event.Params) (*Decision, error) {
	// Observability: the engine clock drives both the latency histogram
	// and the trace timestamps, so simulated time in tests and benches
	// stays consistent across every observable. With a nil observer both
	// branches collapse to the pre-observability path.
	o := e.obs
	var t0 time.Time
	traced := false
	if o != nil {
		t0 = e.clk.Now()
		if o.Traces != nil {
			traced = o.SampleTrace(t0)
		}
	}
	return e.cascade(o, t0, eventName, params, nil, nil, 0, 0, traced, obs.TraceID{})
}

// DecideCheck is Decide for the canonical four-field enforcement tuple
// (user, session, operation, object). A repeat ALLOW verdict for a cacheable event is served from the
// epoch-tagged cache, skipping the cascade entirely; callers on the
// CheckAccess hot path pass the fields as plain strings, so a cache hit
// never builds the Params map. Traced requests always cascade: a cached
// verdict has no steps to record, so a sampled production engine keeps
// the fast path live for the untraced majority.
//
// The epoch pair is captured BEFORE lookup (and, on a miss, before the
// cascade), so any interleaved mutation — which publishes its snapshot
// and then bumps the epoch or session generation — makes the hit
// invalid or the stored entry stale.
func (e *Engine) DecideCheck(eventName, user, session, operation, object string) (*Decision, error) {
	o := e.obs
	var t0 time.Time
	traced := false
	if o != nil {
		t0 = e.clk.Now()
		if o.Traces != nil {
			traced = o.SampleTrace(t0)
		}
	}
	fp := e.fp
	if traced || !e.cacheable(eventName) {
		if !traced {
			fp.bypass.Add(1)
		}
		return e.cascade(o, t0, eventName, checkParams(user, session, operation, object), nil, nil, 0, 0, traced, obs.TraceID{})
	}
	buf := fpKeyPool.Get().(*[]byte)
	key, fits := allowcache.AppendKey((*buf)[:0], eventName, user, session, operation, object)
	if !fits {
		fpKeyPool.Put(buf)
		fp.bypass.Add(1)
		return e.cascade(o, t0, eventName, checkParams(user, session, operation, object), nil, nil, 0, 0, false, obs.TraceID{})
	}
	epoch := fp.tab.Epoch()
	sgen := fp.tab.Session(session)
	if dec, hit := fp.tab.Lookup(key, epoch, sgen); hit {
		*buf = key[:0]
		fpKeyPool.Put(buf)
		fp.hits.Add(1)
		if o != nil {
			now := e.clk.Now()
			elapsed := now.Sub(t0)
			// On a hit the whole decision IS the probe: encode + lookup.
			o.StageFastPath.Observe(elapsed.Seconds())
			o.Decisions.With(eventName, "allow").Inc()
			o.DecisionLatency.With(eventName).Observe(elapsed.Seconds())
			if sl := o.Slow; sl != nil && sl.Exceeds(elapsed) {
				o.SlowDecisions.Inc()
				sl.Record(obs.SlowRecord{
					At: t0, Event: eventName, Scope: subject(user, session),
					Seconds: elapsed.Seconds(), Allowed: true,
				})
			}
		}
		return dec, nil
	}
	fp.misses.Add(1)
	if o != nil {
		o.StageFastPath.Observe(e.clk.Now().Sub(t0).Seconds())
	}
	return e.cascade(o, t0, eventName, checkParams(user, session, operation, object), buf, key, epoch, sgen, false, obs.TraceID{})
}

// checkParams builds the Params map for the four-field tuple.
func checkParams(user, session, operation, object string) event.Params {
	return event.Params{
		"user": user, "session": session,
		"operation": operation, "object": object,
	}
}

// cascade runs the full rule cascade for one enforcement event. fpBuf
// is non-nil only on a fast-path miss: the pooled key buffer is held
// through the cascade so an ALLOW verdict can be stored under the
// pre-captured epoch pair without re-encoding the tuple. traced asks
// for a cascade trace (already sampled or forced by the caller); tid is
// the client-supplied trace identity, zero for engine-sampled traces.
func (e *Engine) cascade(o *obs.Observer, t0 time.Time, eventName string, params event.Params, fpBuf *[]byte, fpKey []byte, fpEpoch uint64, fpSgen allowcache.Gen, traced bool, tid obs.TraceID) (*Decision, error) {
	fp := e.fp
	dec := &Decision{}
	dec.votes = dec.vbuf[:0]
	p := make(event.Params, len(params)+1)
	for k, v := range params {
		p[k] = v
	}
	p[DecisionKey] = dec
	user, _ := p["user"].(string)
	session, _ := p["session"].(string)
	scope := subject(user, session)

	var tr *obs.Trace
	if traced && o != nil && o.Traces != nil {
		tr = o.Traces.StartID(tid, eventName, scope, e.clk.Now())
		dec.trace = tr // no concurrent access before the raise below
	}
	// Stage attribution: the raise-to-settle window is the cascade
	// stage — rule matching, condition evaluation and actions (queue
	// time is attributed separately, to lane_wait, by the drain
	// instrument).
	var tRaise time.Time
	if o != nil {
		tRaise = e.clk.Now()
	}
	// p was built here and is never touched again: hand ownership to the
	// detector so it skips its defensive clone.
	if err := e.det.RaiseSyncTracedOwned(eventName, p, tr); err != nil {
		if fpBuf != nil {
			*fpBuf = fpKey[:0]
			fpKeyPool.Put(fpBuf)
		}
		return nil, err
	}
	allowed, reason := dec.Verdict()
	if fpBuf != nil {
		if allowed {
			fp.tab.Store(fpKey, dec, fpEpoch, fpSgen)
		}
		*fpBuf = fpKey[:0]
		fpKeyPool.Put(fpBuf)
	}
	if o != nil {
		now := e.clk.Now()
		o.StageCascade.Observe(now.Sub(tRaise).Seconds())
		if tr != nil {
			o.Traces.Finish(tr, now)
			o.TracesTotal.Inc()
		}
		verdict := "deny"
		if allowed {
			verdict = "allow"
		}
		o.Decisions.With(eventName, verdict).Inc()
		elapsed := now.Sub(t0)
		o.DecisionLatency.With(eventName).Observe(elapsed.Seconds())
		if sl := o.Slow; sl != nil && sl.Exceeds(elapsed) {
			o.SlowDecisions.Inc()
			rec := obs.SlowRecord{
				At: t0, Event: eventName, Scope: scope,
				Seconds: elapsed.Seconds(), Allowed: allowed, Reason: reason,
			}
			if tr != nil {
				// Slow decisions force full trace retention: the snapshot
				// embedded here outlives any trace-ring eviction.
				td := tr.Snapshot()
				rec.Trace = &td
				rec.TraceID = td.TraceID
				rec.TraceSeq = td.ID
			}
			sl.Record(rec)
		}
	}
	return dec, nil
}

// subject names whom a decision is about, for the trace and
// slow-record scope field: the session when present, else the user.
func subject(user, session string) string {
	if session != "" {
		return session
	}
	return user
}

// Quiesce blocks until the detector's drain is idle — all in-flight
// occurrences, cascades and deferred work processed. Used by graceful
// shutdown and by tests that assert on settled state.
func (e *Engine) Quiesce() { e.det.Quiesce() }

// Notify raises a fire-and-forget event (no decision expected), e.g. a
// state-change notification consumed by temporal or security rules.
func (e *Engine) Notify(eventName string, params event.Params) error {
	return e.det.Raise(eventName, params)
}

// Summary describes the engine's contents for tools.
func (e *Engine) Summary() string {
	st := e.det.Stats()
	c := e.store.Count()
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d rules=%d users=%d roles=%d sessions=%d",
		st.Events, e.pool.Len(), c.Users, c.Roles, c.Sessions)
	return b.String()
}
