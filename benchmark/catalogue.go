package main

// The metric catalogue. BENCHMARK.json lists the same names; a test
// holds the two together. README.md says what each metric should move.

// endToEndNames are the metrics of the untraced run, every one of them
// reported for every workload.
var endToEndNames = []string{
	"setup_s", "checks_per_s", "check_p50_us", "write_p50_us", "server_cpu_us_per_op", "server_rss_mb",
}

// perLayerNames are the metrics of the traced run, by layer (the
// module's name before the dot).
var perLayerNames = []string{
	// Validity of the run itself.
	"loadgen.late_p99_us", "loadgen.sent_share", "loadgen.request_1caller_us",
	"trace.overhead_share", "trace.residual_share",
	// client: the embedded decision cache.
	"client.hit_share", "client.invalidations", "client.check_hit_ns", "client.check_miss_self_us",
	// internal/wire: codec, and round trips against a null backend.
	"wire.encode_check_ns", "wire.decode_check_ns", "wire.encode_batch_ns_per_tuple", "wire.decode_batch_ns_per_tuple",
	"wire.rtt_null_us", "wire.rtt_null_batch_us", "wire.null_checks_per_s",
	"wire.requests", "wire.errors", "wire.epoch_pushes",
	// cmd/rbacd: the process and its two adapters.
	"rbacd.start_ms", "rbacd.http_check_us", "rbacd.http_mutate_us", "rbacd.http_mutate_self_us",
	"rbacd.wire_check_us", "rbacd.wire_check_self_us", "rbacd.reload_p50_ms",
	// activerbac: the facade.
	"facade.open_ms", "facade.check_hit_ns", "facade.check_miss_us", "facade.batch_ns_per_tuple",
	"facade.create_session_us", "facade.activate_us", "facade.drop_us", "facade.apply_policy_ms",
	"facade.export_snapshot_ms", "facade.install_snapshot_ms", "facade.snapshot_bytes", "facade.owte_over_baseline",
	// internal/sentinel: the engine and its verdict cache.
	"sentinel.decide_hit_ns", "sentinel.decide_miss_us", "sentinel.decide_batch_ns_per_tuple",
	"sentinel.fastpath_hit_share", "sentinel.fastpath_bypass_share", "sentinel.fastpath_invalidations",
	"sentinel.stage_probe_ns", "sentinel.stage_cascade_us", "sentinel.batch_groups_per_batch",
	// internal/event and internal/core.
	"event.raise_sync_empty_ns", "event.raise_sync_one_sub_ns", "event.lane_wait_us", "event.raised_per_check",
	"core.rule_fire_ns", "core.rules_fired_per_check", "core.rule_eval_us_per_check",
	// internal/rbac and the baseline engine beside it.
	"rbac.check_access_ns", "rbac.create_session_us", "rbac.add_active_role_us", "baseline.check_ns",
	// Regeneration: internal/policy, internal/analyze, internal/rulegen.
	"policy.parse_ms", "analyze.gate_ms", "rulegen.load_ms", "rulegen.apply_ms",
	"rulegen.rules_total", "rulegen.rules_touched_per_reload",
	// Distribution: internal/store, internal/replicate.
	"store.encode_snapshot_ms", "store.decode_snapshot_ms", "store.audit_append_ns",
	"replicate.sync_bytes_per_epoch", "replicate.syncs_per_reload", "replicate.lag_max_epochs", "replicate.stale_policy_installs",
	"replicate.hub_sync_ms", "replicate.converge_p50_ms",
	// internal/obs.
	"obs.metrics_overhead_hit_share", "obs.metrics_overhead_miss_share", "obs.scrape_ms", "obs.traces_sampled",
	// The children as the kernel sees them.
	"proc.cpu_user_s", "proc.cpu_sys_s", "proc.rss_after_setup_mb",
}
