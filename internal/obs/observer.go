package obs

import "time"

// Observer bundles the metrics registry, the prebuilt engine
// instruments, and (optionally) the decision-trace ring. Every engine
// has one; a nil Traces field leaves decision tracing off while the
// metrics keep counting.
//
// The instrument fields form the documented metric catalog (see
// DESIGN.md §5.2); layers higher than the engine (audit log, security
// monitor, store counts) mirror their own counters in via OnScrape
// collectors or the Audit* instruments.
type Observer struct {
	Registry *Registry
	Traces   *TraceRing // nil = decision tracing off
	Sampler  *Sampler   // nil = trace every decision (no sampling)
	Slow     *SlowRing  // nil = slow-decision capture off

	// Decision path.
	DecisionLatency *HistogramVec // activerbac_decision_seconds{event}
	Decisions       *CounterVec   // activerbac_decisions_total{event,verdict}
	TracesTotal     *Counter      // activerbac_traces_total
	SlowDecisions   *Counter      // activerbac_slow_decisions_total

	// Stage-latency attribution: where a decision's wall-clock went.
	// The Vec is the registered family; the three fixed stages are
	// pre-resolved so the hot path observes without a label lookup.
	StageSeconds  *HistogramVec // activerbac_stage_seconds{stage}
	StageFastPath *Histogram    // stage="fastpath_probe": key encode + cache probe
	StageLaneWait *Histogram    // stage="lane_wait": queue time before the drain
	StageCascade  *Histogram    // stage="cascade": raise-to-settle rule evaluation

	// Decision fast path (scrape-set from the cache's atomic counters).
	FastPathHits          *Counter // activerbac_fastpath_hits_total
	FastPathMisses        *Counter // activerbac_fastpath_misses_total
	FastPathBypass        *Counter // activerbac_fastpath_bypass_total
	FastPathInvalidations *Counter // activerbac_fastpath_invalidations_total
	SnapshotEpoch         *Gauge   // activerbac_snapshot_epoch

	// Access-check batches (a single check is a batch of one).
	BatchSize   *Histogram // activerbac_batch_size (distribution of tuples per batch)
	BatchGroups *Counter   // activerbac_batch_groups_total

	// Drain wait (observed at drain time).
	LaneWait *Histogram // activerbac_lane_wait_seconds

	// Event graph.
	OperatorMatches *CounterVec // activerbac_operator_matches_total{operator}
	EventsRaised    *Counter    // activerbac_events_raised_total
	EventsDetected  *Counter    // activerbac_events_detected_total

	// Rule pool (scrape-set from the pool's atomic per-rule counters).
	RuleFired       *CounterVec // activerbac_rule_fired_total{rule}
	RuleAllowed     *CounterVec // activerbac_rule_allowed_total{rule}
	RuleDenied      *CounterVec // activerbac_rule_denied_total{rule}
	RuleEvalSeconds *CounterVec // activerbac_rule_eval_seconds_total{rule}
	Rules           *Gauge      // activerbac_rules

	// RBAC store (scrape-set).
	Users    *Gauge // activerbac_users
	Roles    *Gauge // activerbac_roles
	Sessions *Gauge // activerbac_sessions

	// Active security (scrape-set by the facade).
	SecurityDenials *Counter // activerbac_security_denials_total
	SecurityAlerts  *Counter // activerbac_security_alerts_total

	// Audit log.
	AuditAppend  *Histogram // activerbac_audit_append_seconds
	AuditFlush   *Histogram // activerbac_audit_flush_seconds
	AuditRecords *Counter   // activerbac_audit_records_total

	// Static analysis (counted per analyzer run by the facade).
	AnalyzeFindings *CounterVec // activerbac_analyze_findings_total{code,severity}

	// Bounded verification (counted per verifier run by the facade).
	VerifyStates   *Counter    // activerbac_verify_states_total
	VerifyFindings *CounterVec // activerbac_verify_findings_total{code}
	VerifySeconds  *Histogram  // activerbac_verify_seconds

	// Wire transport (counted by rbacd's wire server hooks).
	WireRequests *CounterVec   // activerbac_wire_requests_total{opcode}
	WireErrors   *CounterVec   // activerbac_wire_errors_total{opcode}
	WireInflight *Gauge        // activerbac_wire_inflight
	WireRTT      *HistogramVec // activerbac_wire_rtt_seconds{opcode}
	WireWrites   *Counter      // activerbac_wire_writes_total

	// Epoch push (counted by rbacd's wire server hooks).
	WireSubscribers *Gauge   // activerbac_wire_subscribers
	EpochPushes     *Counter // activerbac_epoch_pushes_total

	// Replication (fed by rbacd's replicate hooks: the Hub's on a
	// leader, the Replica's on a replica).
	ReplicaLag  *Gauge     // activerbac_replica_lag
	SyncTotal   *Counter   // activerbac_sync_total
	SyncBytes   *Counter   // activerbac_sync_bytes_total
	SyncSeconds *Histogram // activerbac_sync_seconds
}

// Stage label values of activerbac_stage_seconds.
const (
	StageNameFastPath = "fastpath_probe"
	StageNameLaneWait = "lane_wait"
	StageNameCascade  = "cascade"
)

// BatchSizeBuckets are the activerbac_batch_size histogram bounds:
// powers of two up to the wire protocol's batch cap.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// SampleTrace reports whether a decision beginning at the engine-clock
// instant now should record a cascade trace: every decision when no
// sampler is configured (the PR 2 behaviour), else the sampler's
// probabilistic + rate-limited verdict. Callers must already have
// checked that a trace ring exists.
func (o *Observer) SampleTrace(now time.Time) bool {
	if s := o.Sampler; s != nil {
		return s.Sample(now)
	}
	return true
}

// NewObserver builds a registry with the full metric catalog
// registered, plus a decision-trace ring of traceCapacity (0 disables
// tracing).
func NewObserver(traceCapacity int) *Observer {
	r := NewRegistry()
	o := &Observer{
		Registry: r,

		DecisionLatency: r.Histogram("activerbac_decision_seconds",
			"Wall-clock latency of one enforcement decision (Decide round trip).", nil, "event"),
		Decisions: r.Counter("activerbac_decisions_total",
			"Enforcement decisions by triggering event and verdict.", "event", "verdict"),
		TracesTotal: r.Counter("activerbac_traces_total",
			"Decision traces recorded into the ring buffer.").With(),
		SlowDecisions: r.Counter("activerbac_slow_decisions_total",
			"Decisions whose latency met or exceeded the slow threshold.").With(),

		FastPathHits: r.Counter("activerbac_fastpath_hits_total",
			"Decisions served from the fast-path cache.").With(),
		FastPathMisses: r.Counter("activerbac_fastpath_misses_total",
			"Cacheable decisions that ran the cascade and were considered for caching.").With(),
		FastPathBypass: r.Counter("activerbac_fastpath_bypass_total",
			"Access checks that could not use the fast path (uncacheable event or rule set, unencodable tuple, client trace with tracing off).").With(),
		FastPathInvalidations: r.Counter("activerbac_fastpath_invalidations_total",
			"Fast-path cache invalidations (whole-cache epoch bumps plus per-session bumps).").With(),
		SnapshotEpoch: r.Gauge("activerbac_snapshot_epoch",
			"Policy epoch of the RBAC store's published copy-on-write snapshot.").With(),

		BatchSize: r.Histogram("activerbac_batch_size",
			"Tuples per access-check batch; a single check is a batch of 1.", BatchSizeBuckets).With(),
		BatchGroups: r.Counter("activerbac_batch_groups_total",
			"Group work items batches posted to the drain (one drain crossing each).").With(),

		LaneWait: r.Histogram("activerbac_lane_wait_seconds",
			"Time a work item spent queued before the event detector's drain ran it.", nil).With(),

		OperatorMatches: r.Counter("activerbac_operator_matches_total",
			"Composite-operator detections by operator kind.", "operator"),
		EventsRaised: r.Counter("activerbac_events_raised_total",
			"Primitive occurrences injected into the detector.").With(),
		EventsDetected: r.Counter("activerbac_events_detected_total",
			"All detected occurrences, primitive and composite.").With(),

		RuleFired: r.Counter("activerbac_rule_fired_total",
			"OWTE rule firings by rule name.", "rule"),
		RuleAllowed: r.Counter("activerbac_rule_allowed_total",
			"Rule firings whose conditions held (Then branch ran).", "rule"),
		RuleDenied: r.Counter("activerbac_rule_denied_total",
			"Rule firings routed to the Else branch.", "rule"),
		RuleEvalSeconds: r.Counter("activerbac_rule_eval_seconds_total",
			"Cumulative wall-clock time spent evaluating each rule (condition + actions).", "rule"),
		Rules: r.Gauge("activerbac_rules",
			"Rules currently in the pool.").With(),

		Users: r.Gauge("activerbac_users",
			"Users known to the RBAC store.").With(),
		Roles: r.Gauge("activerbac_roles",
			"Roles known to the RBAC store.").With(),
		Sessions: r.Gauge("activerbac_sessions",
			"Live sessions in the RBAC store.").With(),

		SecurityDenials: r.Counter("activerbac_security_denials_total",
			"Denials recorded by the active-security monitor.").With(),
		SecurityAlerts: r.Counter("activerbac_security_alerts_total",
			"Active-security alerts fired.").With(),

		AuditAppend: r.Histogram("activerbac_audit_append_seconds",
			"Latency of one audit-log append (buffered write).", nil).With(),
		AuditFlush: r.Histogram("activerbac_audit_flush_seconds",
			"Latency of one audit-log flush + fsync.", nil).With(),
		AuditRecords: r.Counter("activerbac_audit_records_total",
			"Records appended to the audit log.").With(),

		AnalyzeFindings: r.Counter("activerbac_analyze_findings_total",
			"Static-analysis findings observed, by finding code and severity.", "code", "severity"),

		VerifyStates: r.Counter("activerbac_verify_states_total",
			"States visited by the bounded symbolic verifier, cumulative over runs.").With(),
		VerifyFindings: r.Counter("activerbac_verify_findings_total",
			"Bounded-verification findings observed, by finding code.", "code"),
		VerifySeconds: r.Histogram("activerbac_verify_seconds",
			"Wall-clock duration of one bounded verification run (exploration plus counterexample replay).", nil).With(),

		WireRequests: r.Counter("activerbac_wire_requests_total",
			"Wire-protocol request frames decoded, by opcode.", "opcode"),
		WireErrors: r.Counter("activerbac_wire_errors_total",
			"Wire-protocol ERROR frames sent, by offending request opcode.", "opcode"),
		WireInflight: r.Gauge("activerbac_wire_inflight",
			"Wire-protocol requests admitted but not yet responded to.").With(),
		WireRTT: r.Histogram("activerbac_wire_rtt_seconds",
			"Server-side wire round trip per opcode: frame decoded to response flushed.", nil, "opcode"),
		WireWrites: r.Counter("activerbac_wire_writes_total",
			"Socket writes of wire-protocol response bytes; wire_requests_total over this is frames per write.").With(),

		WireSubscribers: r.Gauge("activerbac_wire_subscribers",
			"Connections currently subscribed to epoch pushes.").With(),
		EpochPushes: r.Counter("activerbac_epoch_pushes_total",
			"EPOCH_PUSH frames written to subscribers (coalesced per bump burst).").With(),

		ReplicaLag: r.Gauge("activerbac_replica_lag",
			"Epoch distance between the observed leader push epoch and the locally applied one (replica mode).").With(),
		SyncTotal: r.Counter("activerbac_sync_total",
			"Policy-sync snapshot transfers (served on a leader, applied on a replica; acks excluded).").With(),
		SyncBytes: r.Counter("activerbac_sync_bytes_total",
			"Bytes of policy-sync snapshot payload transferred.").With(),
		SyncSeconds: r.Histogram("activerbac_sync_seconds",
			"Duration of one policy-sync transfer (serve time on a leader, transfer plus apply on a replica).", nil).With(),
	}
	o.StageSeconds = r.Histogram("activerbac_stage_seconds",
		"Decision latency attributed to one pipeline stage.", nil, "stage")
	o.StageFastPath = o.StageSeconds.With(StageNameFastPath)
	o.StageLaneWait = o.StageSeconds.With(StageNameLaneWait)
	o.StageCascade = o.StageSeconds.With(StageNameCascade)
	if traceCapacity > 0 {
		o.Traces = NewTraceRing(traceCapacity)
	}
	return o
}
