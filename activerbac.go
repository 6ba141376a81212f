// Package activerbac is an event-driven authorization engine: a Go
// reproduction of "Active Authorization Rules for Enforcing Role-Based
// Access Control and its Extensions" (Adaikkalavan & Chakravarthy, ICDE
// 2005).
//
// A System is built from a high-level policy specification (the .acp
// language). The policy compiles into an access specification graph and
// from it into a pool of OWTE (On-When-Then-Else) active authorization
// rules running on a Sentinel+-style event engine. Every request —
// session creation, role activation, access check — is an event; the
// generated rules evaluate the NIST RBAC standard (core, hierarchies,
// static and dynamic separation of duty) plus the paper's extensions
// (GTRBAC temporal constraints, control-flow dependencies, privacy-aware
// RBAC) and vote on a decision. Active-security rules watch the outcome
// stream and react to attack patterns without operator intervention.
//
// Basic use:
//
//	sys, err := activerbac.Open(policySource, nil)
//	sid, err := sys.CreateSession("bob")
//	err = sys.AddActiveRole("bob", sid, "PC")
//	ok  := sys.CheckAccess(sid, activerbac.Permission{Operation: "write", Object: "po.dat"})
//
// Policy changes go through ApplyPolicy, which regenerates exactly the
// affected rules (the paper's central manageability claim).
package activerbac

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"activerbac/internal/clock"
	"activerbac/internal/core"
	"activerbac/internal/event"
	"activerbac/internal/obs"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
	"activerbac/internal/rulegen"
	"activerbac/internal/security"
	"activerbac/internal/sentinel"
	"activerbac/internal/store"
)

// Re-exported identifier types, so callers need no internal imports.
type (
	// UserID identifies a user.
	UserID = rbac.UserID
	// RoleID identifies a role.
	RoleID = rbac.RoleID
	// SessionID identifies a session.
	SessionID = rbac.SessionID
	// Permission is an operation on an object.
	Permission = rbac.Permission
	// RuleInfo is a read-only view of one generated rule.
	RuleInfo = core.RuleInfo
	// Alert is one fired active-security alert.
	Alert = security.Alert
	// Report summarizes an incremental policy regeneration.
	Report = rulegen.Report
	// SystemReport is one periodic monitoring snapshot (the `report`
	// policy statement).
	SystemReport = rulegen.SystemReport
	// Clock abstracts time; pass a simulated clock in tests.
	Clock = clock.Clock
	// Params carries event parameters for external events.
	Params = event.Params
	// TraceData is one retained decision trace: the full OWTE cascade of
	// a single enforcement request.
	TraceData = obs.TraceData
	// TraceStep is one step of a decision trace.
	TraceStep = obs.Step
	// TraceID is the 16-byte request-scoped trace identity minted at the
	// edge and carried with a traced check across HTTP and the wire
	// protocol.
	TraceID = obs.TraceID
	// SlowRecord is the structured capture of one decision that exceeded
	// Options.SlowThreshold.
	SlowRecord = obs.SlowRecord
)

// NewTraceID mints a random 16-byte trace id.
func NewTraceID() TraceID { return obs.NewTraceID() }

// ParseTraceID parses a 32-hex-character trace id.
func ParseTraceID(s string) (TraceID, error) { return obs.ParseTraceID(s) }

// Sentinel errors re-exported for errors.Is classification.
var (
	ErrDenied      = rbac.ErrDenied
	ErrNotFound    = rbac.ErrNotFound
	ErrExists      = rbac.ErrExists
	ErrSSD         = rbac.ErrSSD
	ErrDSD         = rbac.ErrDSD
	ErrCardinality = rbac.ErrCardinality
	ErrUserLocked  = rbac.ErrUserLocked
)

// NewSimClock returns a deterministic simulated clock started at the
// given instant; the returned *clock.Sim satisfies Clock and exposes
// Advance/AdvanceTo for driving time in tests and experiments.
func NewSimClock(start time.Time) *clock.Sim { return clock.NewSim(start) }

// DenialError is returned by state-changing calls when the rule pool
// denies the request; Reason carries the alternative-action message
// (e.g. "Access Denied Cannot Activate").
type DenialError struct {
	// Op names the denied operation.
	Op string
	// Reason is the rule's error message.
	Reason string
}

// Error implements error.
func (e *DenialError) Error() string {
	return fmt.Sprintf("activerbac: %s denied: %s", e.Op, e.Reason)
}

// Unwrap makes errors.Is(err, ErrDenied) true.
func (e *DenialError) Unwrap() error { return ErrDenied }

// LanesAuto is kept for callers that still set Options.Lanes.
//
// Deprecated: ignored; enforcement runs on one drain.
const LanesAuto = -1

// Options configures Open.
type Options struct {
	// Clock drives all temporal behaviour; defaults to the real clock.
	Clock Clock
	// AuditPath, when set, opens an append-only audit log recording
	// every rule firing and alert.
	AuditPath string
	// Lanes is kept for callers that still set it. Every decision runs
	// on the event detector's one drain — the paper's single Sentinel+
	// detector thread.
	//
	// Deprecated: ignored; enforcement runs on one drain.
	Lanes int
	// Metrics is kept for callers that still set it. Every System
	// keeps the metrics registry — decision counts and latency, drain
	// queueing, rule firings, operator matches, audit latency — rendered
	// in Prometheus text format by WriteMetrics (docs/METRICS.md).
	//
	// Deprecated: ignored; every System is metered.
	Metrics bool
	// TraceBuffer, when > 0, retains that many completed decision
	// traces in a ring buffer (RecentTraces / TraceByID) and records the
	// full OWTE cascade of every decision — or, when TraceSample is also
	// set, of the sampled subset.
	TraceBuffer int
	// TraceSample, when > 0, samples tracing instead of tracing every
	// decision: each decision is traced with this probability (clamped to
	// [0,1]), and unsampled decisions keep the full fast path. Client-
	// requested traces (a nonzero BatchCheck.Trace) are always honoured
	// regardless of the sample rate. Requires TraceBuffer > 0 to have any
	// effect.
	TraceSample float64
	// TraceRateLimit caps sampled traces per second (approximate fixed
	// window). 0 means no cap beyond the probability.
	TraceRateLimit float64
	// SlowThreshold, when > 0, captures every decision slower than this
	// duration into a slow-decision ring (SlowDecisions), with the full
	// cascade trace attached when the decision was traced.
	SlowThreshold time.Duration
	// SlowBuffer sizes the slow-decision ring; 0 means 64.
	SlowBuffer int
	// AuditSyncEveryAppend flushes and fsyncs the audit log on every
	// append instead of buffering. Durable but slower; the buffered
	// default should be paired with periodic SyncAudit calls (rbacd's
	// -audit-sync flag) to bound crash loss.
	AuditSyncEveryAppend bool
	// FastPath is kept for callers that still set it. Every System
	// serves repeat ALLOW verdicts of cacheable access checks from an
	// epoch-tagged cache invalidated on every policy, rule or session
	// change (DESIGN §5.4). An audit log registers an outcome listener,
	// which makes every event uncacheable, so audited decisions always
	// run the full cascade.
	//
	// Deprecated: ignored; the decision fast path is always on.
	FastPath bool
}

// System is the assembled authorization engine. All methods are safe
// for concurrent use.
type System struct {
	gen   *rulegen.Generator
	audit *store.AuditLog
	obs   *obs.Observer

	// srcMu guards source and makes (source, policy state) one cut:
	// ApplyPolicy holds it for writing across regeneration and the swap,
	// ExportSyncSnapshot holds it for reading across text and state.
	srcMu  sync.RWMutex
	source string
}

// Open parses a policy, builds the engine and generates the rule pool.
func Open(policySource string, opts *Options) (*System, error) {
	spec, err := policy.ParseString(policySource)
	if err != nil {
		return nil, err
	}
	return openSpec(spec, policySource, nil, opts)
}

// OpenFile is Open reading the policy from a file.
func OpenFile(path string, opts *Options) (*System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Open(string(data), opts)
}

// openSpec builds a System on the empty policy and installs spec (and,
// for OpenSnapshot, state) through the same policy transaction
// ApplyPolicy and InstallSyncSnapshot run.
func openSpec(spec *policy.Spec, source string, state *rbac.Snapshot, opts *Options) (*System, error) {
	if opts == nil {
		opts = &Options{}
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	observer := obs.NewObserver(opts.TraceBuffer)
	if opts.TraceSample > 0 && opts.TraceBuffer > 0 {
		observer.Sampler = obs.NewSampler(opts.TraceSample, opts.TraceRateLimit)
	}
	if opts.SlowThreshold > 0 {
		slowBuf := opts.SlowBuffer
		if slowBuf <= 0 {
			slowBuf = 64
		}
		observer.Slow = obs.NewSlowRing(slowBuf, opts.SlowThreshold)
	}
	eng := sentinel.NewEngine(clk, sentinel.WithObserver(observer))
	gen, err := rulegen.New(eng)
	if err != nil {
		return nil, err
	}
	sys := &System{gen: gen, obs: observer}
	if _, err := sys.install(source, spec, state); err != nil {
		return nil, err
	}
	// Active-security counters are owned by the monitor; mirror them
	// into the registry at scrape time like the engine's own counters.
	observer.Registry.OnScrape(func() {
		observer.SecurityDenials.Set(float64(gen.Security().Denials()))
		observer.SecurityAlerts.Set(float64(len(gen.Security().Alerts())))
	})
	if opts.AuditPath != "" {
		audit, err := store.OpenAudit(opts.AuditPath)
		if err != nil {
			return nil, err
		}
		sys.audit = audit
		if opts.AuditSyncEveryAppend {
			audit.SetSyncEveryAppend(true)
		}
		audit.SetInstruments(&store.AuditInstruments{
			Append:  observer.AuditAppend.Observe,
			Flush:   observer.AuditFlush.Observe,
			Records: observer.AuditRecords.Inc,
		})
		eng.Pool().OnOutcome(func(o core.Outcome) {
			detail := o.FailedCond
			if o.CondErr != nil {
				detail = o.CondErr.Error()
			}
			user, _ := o.Event.Params["user"].(string)
			_, _ = audit.Append(store.AuditRecord{
				At: o.At, Kind: "decision", Rule: o.Rule, Event: o.Event.Event,
				User: user, Allowed: o.Allowed, Detail: detail,
			})
		})
		gen.Security().OnAlert(func(a security.Alert) {
			_, _ = audit.Append(store.AuditRecord{
				At: a.At, Kind: "alert", User: a.Subject, Allowed: false,
				Detail: a.String(),
			})
		})
	}
	return sys, nil
}

// Quiesce blocks until the enforcement drain is idle: all in-flight
// decisions, rule cascades and deferred work have been processed. Used
// by graceful shutdown and by tests that assert on settled state.
func (s *System) Quiesce() { s.gen.Engine().Quiesce() }

// ErrObservabilityOff is returned by the trace accessors when the
// System was opened without Options.TraceBuffer, and by SlowDecisions
// when it was opened without Options.SlowThreshold. Metrics are never
// off.
var ErrObservabilityOff = errors.New("activerbac: observability not enabled")

// Observer exposes the metric catalog for transports that instrument
// themselves (the wire server counts requests/errors/in-flight per
// opcode). Never nil: every System is metered.
func (s *System) Observer() *obs.Observer { return s.obs }

// WriteMetrics renders the metric registry in Prometheus text
// exposition format (0.0.4); docs/METRICS.md lists the families.
func (s *System) WriteMetrics(w io.Writer) error {
	return s.obs.Registry.WritePrometheus(w)
}

// RecentTraces returns the n most recently completed decision traces,
// newest first (n <= 0 means all retained). Requires
// Options.TraceBuffer > 0.
func (s *System) RecentTraces(n int) ([]TraceData, error) {
	if s.obs.Traces == nil {
		return nil, ErrObservabilityOff
	}
	return s.obs.Traces.Recent(n), nil
}

// TraceByID returns one retained decision trace; ok is false when the
// id has been evicted from the ring or never existed.
func (s *System) TraceByID(id uint64) (TraceData, bool, error) {
	if s.obs.Traces == nil {
		return TraceData{}, false, ErrObservabilityOff
	}
	td, ok := s.obs.Traces.Get(id)
	return td, ok, nil
}

// TraceByTraceID returns the retained decision trace carrying the given
// client-minted trace id; ok is false when no retained trace carries it
// (evicted, never traced, or zero id).
func (s *System) TraceByTraceID(tid TraceID) (TraceData, bool, error) {
	if s.obs.Traces == nil {
		return TraceData{}, false, ErrObservabilityOff
	}
	td, ok := s.obs.Traces.GetByTraceID(tid)
	return td, ok, nil
}

// SlowDecisions returns the n most recent slow-decision captures,
// newest first (n <= 0 means all retained). Requires
// Options.SlowThreshold > 0.
func (s *System) SlowDecisions(n int) ([]SlowRecord, error) {
	if s.obs.Slow == nil {
		return nil, ErrObservabilityOff
	}
	return s.obs.Slow.Recent(n), nil
}

// FastPathStats is a snapshot of the decision fast path's counters.
type FastPathStats = sentinel.FastPathStats

// FastPathStats snapshots the decision cache counters.
func (s *System) FastPathStats() FastPathStats { return s.gen.Engine().FastPath().Stats() }

// SnapshotEpoch reports the policy epoch of the RBAC store's published
// copy-on-write snapshot (bumped once per policy transaction: once per
// Open, OpenSnapshot, ApplyPolicy or sync install, and once per direct
// policy-grade store edit).
func (s *System) SnapshotEpoch() uint64 { return s.gen.Engine().Store().Epoch() }

// SyncAudit flushes buffered audit records to disk (a no-op without an
// audit log). Servers running the buffered audit mode call this on a
// timer to bound crash loss.
func (s *System) SyncAudit() error {
	if s.audit == nil {
		return nil
	}
	return s.audit.Sync()
}

// Close releases resources (the audit log, if any) after quiescing the
// enforcement drain, so buffered audit records for in-flight decisions
// are not lost.
func (s *System) Close() error {
	s.Quiesce()
	if s.audit != nil {
		return s.audit.Close()
	}
	return nil
}

// PolicySource returns the currently loaded policy text.
func (s *System) PolicySource() string {
	s.srcMu.RLock()
	defer s.srcMu.RUnlock()
	return s.source
}

// ---------------------------------------------------------------------------
// Enforcement API (implements the baseline.Enforcer request surface)

// decide routes a request event through the rule pool.
func (s *System) decide(op, ev string, p event.Params) error {
	dec, err := s.gen.Engine().Decide(ev, p)
	if err != nil {
		return err
	}
	if allowed, reason := dec.Verdict(); !allowed {
		return &DenialError{Op: op, Reason: reason}
	}
	return nil
}

// CreateSession creates a session for the user through the
// administrative rule (denied for unknown or locked users).
func (s *System) CreateSession(user UserID) (SessionID, error) {
	dec, err := s.gen.Engine().Decide(rulegen.EvCreateSession, event.Params{"user": string(user)})
	if err != nil {
		return "", err
	}
	if allowed, reason := dec.Verdict(); !allowed {
		return "", &DenialError{Op: "createSession", Reason: reason}
	}
	sid, _ := dec.Result().(string)
	return SessionID(sid), nil
}

// DeleteSession ends a session.
func (s *System) DeleteSession(sid SessionID) error {
	return s.decide("deleteSession", rulegen.EvDeleteSession, event.Params{"session": string(sid)})
}

// AddActiveRole activates a role in a session; the generated AAR rule
// variant for the role enforces every applicable constraint.
func (s *System) AddActiveRole(user UserID, sid SessionID, role RoleID) error {
	return roleErr(role, s.decide("addActiveRole", rulegen.EvAddActiveRole(role),
		event.Params{"user": string(user), "session": string(sid)}))
}

// DropActiveRole deactivates a role in a session.
func (s *System) DropActiveRole(user UserID, sid SessionID, role RoleID) error {
	return roleErr(role, s.decide("dropActiveRole", rulegen.EvDropActiveRole(role),
		event.Params{"user": string(user), "session": string(sid)}))
}

// roleErr reports a per-role request whose event the detector does not
// define — the policy declares no such role — as ErrNotFound.
func roleErr(role RoleID, err error) error {
	if errors.Is(err, event.ErrUndefined) {
		return fmt.Errorf("activerbac: role %q: %w", role, ErrNotFound)
	}
	return err
}

// CheckAccess asks whether the session may perform the operation; the
// rule CA1 decides, and denials feed the active-security monitors.
func (s *System) CheckAccess(sid SessionID, p Permission) bool {
	return s.CheckAccessTuple(string(sid), p.Operation, p.Object)
}

// CheckAccessTuple is CheckAccess for callers that already hold the
// check as plain strings. It decides the check as an engine batch of
// one and skips the SessionID/Permission wrappers, so a fast-path cache
// hit stays allocation-free end to end: the Params map is only built if
// the cascade actually runs.
func (s *System) CheckAccessTuple(session, operation, object string) bool {
	eng := s.gen.Engine()
	user, _ := eng.Store().SessionUser(SessionID(session))
	tuple := [1]sentinel.CheckTuple{{User: string(user), Session: session, Operation: operation, Object: object}}
	var verdict [1]sentinel.Verdict
	vs, err := eng.DecideCheckBatch(rulegen.EvCheckAccess, tuple[:], verdict[:0])
	return err == nil && vs[0].Allowed
}

// CheckAccessTupleCacheable is CheckAccessTuple plus the cacheability
// classification an embedded client cache needs: cacheable is true only
// for allowed verdicts of the pure-snapshot checkAccess shape (the
// fastpath CA1 classification — sole non-retaining subscriber, CacheSafe rules
// only, no outcome listeners), i.e. verdicts that stay valid until the
// next push-epoch bump. Time- or history-dependent decisions and
// denials are never cacheable.
func (s *System) CheckAccessTupleCacheable(session, operation, object string) (allowed, cacheable bool) {
	allowed = s.CheckAccessTuple(session, operation, object)
	return allowed, allowed && s.gen.Engine().CacheableEvent(rulegen.EvCheckAccess)
}

// PushEpoch reports the engine's push epoch: a monotonic counter
// bumped by every change that can invalidate a cached verdict —
// policy transactions (like SnapshotEpoch) and session-grade changes
// (role drops, session deletes) alike. Epoch-push subscribers and
// client.Cache key on it.
func (s *System) PushEpoch() uint64 { return s.gen.Engine().PushEpoch() }

// OnEpochBump installs fn to be called with the new push epoch after
// every bump. fn runs under engine-internal locks and must not block
// (atomics and non-blocking channel work only); rbacd wires it to the
// wire server's subscriber fan-out. Installing replaces any previous
// hook; nil clears it.
func (s *System) OnEpochBump(fn func(epoch uint64)) { s.gen.Engine().SetPushHook(fn) }

// BatchCheck is one access check of a CheckAccessBatch call, as plain
// strings (the wire and HTTP batch endpoints decode straight into it).
type BatchCheck struct {
	Session   string `json:"session"`
	Operation string `json:"operation"`
	Object    string `json:"object"`
	// Trace, when nonzero, runs this check through the fully traced
	// cascade (never the verdict cache) and retains its trace under the
	// client-minted id, so TraceByTraceID resolves it afterwards. The
	// trace is retained only when Options.TraceBuffer > 0; the check
	// decides correctly either way. Not part of the JSON form: over HTTP
	// the id travels in the trace header.
	Trace TraceID `json:"-"`
}

// CheckAccessBatch decides every check in one batch-native engine pass:
// the engine captures its snapshot/epoch pair once, probes the fast
// path for the whole batch, and runs the misses as one drain work item
// in input order (see sentinel.Engine.DecideCheckBatch and DESIGN.md
// §5.6). Verdicts come back in input order, appended to the passed
// slice (reused when capacity allows). Each check is decided exactly as
// CheckAccessTuple would decide it; an undefined check event fails
// closed for the whole batch.
func (s *System) CheckAccessBatch(checks []BatchCheck, verdicts []bool) []bool {
	verdicts = verdicts[:0]
	if len(checks) == 0 {
		return verdicts
	}
	eng := s.gen.Engine()
	store := eng.Store()
	bb := batchBufPool.Get().(*batchBuf)
	tuples := bb.tuples[:0]
	// Session→user resolution is a lock-free view read; memoizing the
	// previous session still saves the lookup for the common run of
	// same-session checks within a batch.
	var lastSession string
	var lastUser string
	for i := range checks {
		c := &checks[i]
		user := lastUser
		if i == 0 || c.Session != lastSession {
			u, _ := store.SessionUser(SessionID(c.Session))
			user = string(u)
			lastSession, lastUser = c.Session, user
		}
		tuples = append(tuples, sentinel.CheckTuple{
			User: user, Session: c.Session,
			Operation: c.Operation, Object: c.Object,
			Trace: c.Trace,
		})
	}
	vds, err := eng.DecideCheckBatch(rulegen.EvCheckAccess, tuples, bb.vds[:0])
	if err != nil {
		bb.reset(tuples, vds)
		for range checks {
			verdicts = append(verdicts, false)
		}
		return verdicts
	}
	for i := range vds {
		verdicts = append(verdicts, vds[i].Allowed)
	}
	bb.reset(tuples, vds)
	return verdicts
}

// batchBuf is the facade's pooled batch staging: the tuple slice handed
// to the engine and the verdict slice it fills.
type batchBuf struct {
	tuples []sentinel.CheckTuple
	vds    []sentinel.Verdict
}

func (b *batchBuf) reset(tuples []sentinel.CheckTuple, vds []sentinel.Verdict) {
	for i := range tuples {
		tuples[i] = sentinel.CheckTuple{}
	}
	b.tuples = tuples[:0]
	b.vds = vds[:0]
	batchBufPool.Put(b)
}

var batchBufPool = sync.Pool{New: func() any {
	return &batchBuf{tuples: make([]sentinel.CheckTuple, 0, 256)}
}}

// Vote is one rule's verdict within a decision.
type Vote = sentinel.Vote

// Explanation is the full account of one access decision: the aggregate
// verdict, the deny reason (if any), and every rule vote in firing
// order — the audit-grade answer to "why was this allowed/denied?".
type Explanation struct {
	Allowed bool
	Reason  string
	Votes   []Vote
}

// ExplainAccess runs the same decision as CheckAccess but returns the
// rule-by-rule account instead of a bare verdict. It always runs the
// cascade, never the verdict cache, so every vote is fresh.
func (s *System) ExplainAccess(sid SessionID, p Permission) Explanation {
	user, _ := s.gen.Engine().Store().SessionUser(sid)
	dec, err := s.gen.Engine().Decide(rulegen.EvCheckAccess, event.Params{
		"user": string(user), "session": string(sid),
		"operation": p.Operation, "object": p.Object,
	})
	if err != nil {
		return Explanation{Reason: err.Error()}
	}
	allowed, reason := dec.Verdict()
	return Explanation{Allowed: allowed, Reason: reason, Votes: dec.Votes()}
}

// CheckAccessForPurpose is the privacy-aware decision (rule CAP1): core
// RBAC plus purpose bindings and consent.
func (s *System) CheckAccessForPurpose(sid SessionID, p Permission, purpose string) bool {
	user, _ := s.gen.Engine().Store().SessionUser(sid)
	dec, err := s.gen.Engine().Decide(rulegen.EvCheckPurposeAccess, event.Params{
		"user": string(user), "session": string(sid),
		"operation": p.Operation, "object": p.Object, "purpose": purpose,
	})
	return err == nil && dec.Allowed()
}

// AssignUser assigns a role through the administrative rule (static SoD
// enforced).
func (s *System) AssignUser(user UserID, role RoleID) error {
	return s.decide("assignUser", rulegen.EvAssignUser,
		event.Params{"user": string(user), "role": string(role)})
}

// DeassignUser removes an assignment.
func (s *System) DeassignUser(user UserID, role RoleID) error {
	return s.decide("deassignUser", rulegen.EvDeassignUser,
		event.Params{"user": string(user), "role": string(role)})
}

// EnableRole enables a role (administrator action).
func (s *System) EnableRole(role RoleID) error {
	return s.decide("enableRole", rulegen.EvEnableRole(role), nil)
}

// DisableRole disables a role, subject to disabling-time SoD.
func (s *System) DisableRole(role RoleID) error {
	return s.decide("disableRole", rulegen.EvDisableRole(role), nil)
}

// AddUser registers a user at runtime (outside the policy file).
func (s *System) AddUser(user UserID) error {
	return s.gen.Engine().Store().AddUser(user)
}

// GrantConsent records data-subject consent for an object and purpose.
func (s *System) GrantConsent(object, purpose string) error {
	return s.gen.Privacy().GrantConsent(object, purpose)
}

// RevokeConsent withdraws consent.
func (s *System) RevokeConsent(object, purpose string) error {
	return s.gen.Privacy().RevokeConsent(object, purpose)
}

// SetContext reports an environmental change (a sensor reading, a
// network-state probe) as a context-update event: the value is stored
// and every role whose context requirement stops holding is deactivated
// across all sessions, within the same cascade.
func (s *System) SetContext(key, value string) error {
	return s.decide("setContext", rulegen.EvContextUpdate,
		event.Params{"key": key, "value": value})
}

// GetContext reads the current value of an environmental key.
func (s *System) GetContext(key string) (string, bool) {
	return s.gen.Engine().Env().Get(key)
}

// RaiseExternal injects an external (sensor) event; the event must have
// been registered with RegisterExternal.
func (s *System) RaiseExternal(name string, p Params) error {
	return s.gen.Engine().Monitor().Inject(name, p)
}

// RegisterExternal declares an external event source.
func (s *System) RegisterExternal(name string) error {
	return s.gen.Engine().Monitor().Register(name)
}

// ---------------------------------------------------------------------------
// Policy lifecycle

// ApplyPolicy transitions to a new policy, regenerating exactly the
// affected rules, and returns what changed. The store edits run in one
// policy transaction, published once. The regeneration and the source
// swap happen under one srcMu write hold, so an export never pairs one
// policy's text with the other's state.
func (s *System) ApplyPolicy(policySource string) (Report, error) {
	spec, err := policy.ParseString(policySource)
	if err != nil {
		return Report{}, err
	}
	return s.install(policySource, spec, nil)
}

// install is the one policy transaction behind Open, OpenSnapshot,
// ApplyPolicy and InstallSyncSnapshot: regenerate from the current
// policy to spec and, when state is non-nil, restore it over the result
// and check the invariants. The store edits publish the access view
// once; the regeneration and the source swap run under one srcMu write
// hold.
func (s *System) install(source string, spec *policy.Spec, state *rbac.Snapshot) (rep Report, err error) {
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	err = s.gen.Engine().Store().Update(func(tx *rbac.Tx) error {
		if rep, err = s.gen.ApplyTx(tx, spec); err != nil {
			return err
		}
		s.source = source
		if state != nil {
			if err := tx.Restore(*state); err != nil {
				return fmt.Errorf("restore state: %w", err)
			}
		}
		return nil
	})
	if err != nil || state == nil {
		return rep, err
	}
	if errs := s.CheckInvariants(); len(errs) != 0 {
		return rep, fmt.Errorf("invariants: %w", errors.Join(errs...))
	}
	return rep, nil
}

// CheckPolicy validates a policy without loading it and returns the
// findings as strings (errors first).
func CheckPolicy(policySource string) ([]string, error) {
	spec, err := policy.ParseString(policySource)
	if err != nil {
		return nil, err
	}
	issues := policy.Check(spec)
	out := make([]string, len(issues))
	for i, is := range issues {
		out[i] = is.String()
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Introspection

// OnReport registers a listener for periodic monitoring reports
// (`report NAME every DUR` statements). Listeners run on the engine's
// drain goroutine and must not block.
func (s *System) OnReport(fn func(SystemReport)) { s.gen.OnReport(fn) }

// Rules returns a snapshot of the generated rule pool, sorted by name.
func (s *System) Rules() []RuleInfo { return s.gen.Engine().Pool().Snapshot() }

// Alerts returns every active-security alert fired so far.
func (s *System) Alerts() []Alert { return s.gen.Security().Alerts() }

// SessionRoles lists the active roles of a session.
func (s *System) SessionRoles(sid SessionID) ([]RoleID, error) {
	return s.gen.Engine().Store().SessionRoles(sid)
}

// AssignedRoles lists a user's directly assigned roles.
func (s *System) AssignedRoles(user UserID) ([]RoleID, error) {
	return s.gen.Engine().Store().AssignedRoles(user)
}

// AuthorizedRoles lists every role a user may activate (assignments
// plus hierarchy).
func (s *System) AuthorizedRoles(user UserID) ([]RoleID, error) {
	return s.gen.Engine().Store().AuthorizedRoles(user)
}

// UserLocked reports whether active security has locked the user.
func (s *System) UserLocked(user UserID) bool {
	return s.gen.Engine().Store().UserLocked(user)
}

// UnlockUser clears an active-security lock.
func (s *System) UnlockUser(user UserID) error {
	return s.gen.Engine().Store().SetUserLocked(user, false)
}

// RoleEnabled reports GTRBAC enabling state.
func (s *System) RoleEnabled(role RoleID) bool {
	return s.gen.Engine().Store().RoleEnabled(role)
}

// CheckInvariants audits the underlying RBAC state; a healthy system
// returns nil.
func (s *System) CheckInvariants() []error {
	return s.gen.Engine().Store().CheckInvariants()
}

// VerifyRules audits the generated rule pool against the loaded policy
// (the paper's future-work item): a healthy system returns nil; a
// non-nil result means the pool no longer matches the policy.
func (s *System) VerifyRules() []error { return s.gen.Verify() }

// SaveState writes a snapshot (state + policy source) to path, both
// read in the same cut ExportSyncSnapshot takes.
func (s *System) SaveState(path string) error {
	s.srcMu.RLock()
	src, state := s.source, s.gen.Engine().Store().Snapshot()
	s.srcMu.RUnlock()
	return store.SaveSnapshot(path, src, state)
}

// OpenSnapshot rebuilds a System from a snapshot file: the policy
// generates the rule pool and the state (assignments made at runtime,
// sessions, locks) is restored over it, in one policy transaction.
func OpenSnapshot(path string, opts *Options) (*System, error) {
	f, err := store.LoadSnapshot(path)
	if err != nil {
		return nil, err
	}
	spec, err := policy.ParseString(f.Policy)
	if err != nil {
		return nil, err
	}
	return openSpec(spec, f.Policy, &f.State, opts)
}

// Stats summarizes the engine for dashboards. Queued is the number of
// work items waiting for the enforcement drain right now.
type Stats struct {
	Rules      int
	Events     int
	Users      int
	Roles      int
	Sessions   int
	Detections uint64
	Denials    uint64
	Alerts     int
	Queued     int
}

// Stats returns engine counters.
func (s *System) Stats() Stats {
	eng := s.gen.Engine()
	es := eng.Detector().Stats()
	c := eng.Store().Count()
	return Stats{
		Rules: eng.Pool().Len(), Events: es.Events,
		Users: c.Users, Roles: c.Roles, Sessions: c.Sessions,
		Detections: es.Detected,
		Denials:    s.gen.Security().Denials(),
		Alerts:     len(s.gen.Security().Alerts()),
		Queued:     es.Queued,
	}
}
