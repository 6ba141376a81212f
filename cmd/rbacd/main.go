// Command rbacd serves an active authorization engine over HTTP. It
// loads an .acp policy, generates the OWTE rule pool and answers
// enforcement requests; the policy can be swapped at runtime through
// the API, regenerating exactly the affected rules.
//
// Usage:
//
//	rbacd -policy policy.acp [-addr :8180] [-audit audit.log] [-audit-sync 3s]
//	      [-snapshot state.json] [-trace-buffer 256] [-debug-addr :6060]
//	      [-analyze off|warn|strict] [-verify off|warn|strict] [-wire-addr :8181]
//	      [-mode leader|replica] [-leader-addr host:8181] [-replica-name NAME]
//
// -mode selects the replication role. A leader (the default) owns the
// policy and serves SYNC snapshots to replicas on its wire listener; a
// replica boots empty, pulls policy + compiled state from -leader-addr
// (identifying itself as -replica-name in the leader's registry), and
// serves checks from its local snapshot — every mutating endpoint
// answers 403 and belongs at the leader. A replica's /readyz stays 503
// until the first sync lands; on leader loss it keeps serving the
// last-applied epoch (stale, never down) and reconnects with backoff.
// Synced policies pass through the same -analyze/-verify gates a hot
// reload does. In replica mode POLICY_VERSION answers with the applied
// leader epoch, and GET /v1/replication on the leader reports each
// replica's applied epoch, lag, last sync time and connection state.
//
// -analyze gates both startup and policy hot reloads on the static
// analyzer (internal/analyze): "warn" (the default) logs every finding,
// "strict" refuses to start — and rejects POST /v1/policy — when any
// finding is error severity, "off" skips analysis entirely.
//
// -verify gates startup and hot reloads on the bounded symbolic
// verifier (internal/analyze/reach), which explores every reachable
// session state within bounds and emits RV1xx findings with replayable
// counterexamples. "off" (the default — verification explores a state
// space and is heavier than analysis), "warn" logs findings and serves
// them at GET /v1/verify, "strict" refuses to start — and rejects
// POST /v1/policy with 422 — on any error-severity finding.
//
// -wire-addr additionally serves the internal/wire binary decision
// protocol (CHECK / CHECK_BATCH / PING / POLICY_VERSION / SUBSCRIBE)
// on a second listener; -wire-max-inflight, -wire-read-timeout,
// -wire-write-timeout and -wire-max-frame tune its per-connection
// backpressure, and -wire-max-subscribers caps epoch-push
// subscriptions (0 = unlimited). Subscribed connections receive an
// unsolicited EPOCH_PUSH frame on every policy-epoch bump, which the
// client package uses to invalidate its embedded decision cache. The
// HTTP listener's own slow-client guards are -http-read-header-timeout
// and -http-idle-timeout.
//
// Endpoints (all JSON unless noted):
//
//	POST   /v1/sessions              {"user":U}                -> {"session":S}
//	DELETE /v1/sessions              {"session":S}
//	POST   /v1/activate              {"user":U,"session":S,"role":R}
//	POST   /v1/deactivate            {"user":U,"session":S,"role":R}
//	GET    /v1/check?session=&operation=&object=[&purpose=]    -> {"allowed":bool}
//	POST   /v1/check-batch           {"checks":[{"session":S,"operation":OP,"object":O},...]}
//	                                                           -> {"verdicts":[bool,...]} (input order)
//	POST   /v1/assign                {"user":U,"role":R}
//	POST   /v1/deassign              {"user":U,"role":R}
//	POST   /v1/users                 {"user":U}
//	POST   /v1/roles/enable          {"role":R}
//	POST   /v1/roles/disable         {"role":R}
//	POST   /v1/context               {"key":K,"value":V}       context update (may revoke roles)
//	GET    /v1/context?key=K                                   -> current value
//	GET    /v1/verify                                          -> rule-pool check + bounded-verification findings/counterexamples
//	GET    /v1/rules                                           -> rule inventory
//	GET    /v1/stats                                           -> engine counters
//	GET    /v1/fastpath                                        -> decision fast-path cache counters
//	GET    /v1/alerts                                          -> active-security alerts
//	POST   /v1/policy                (text/plain .acp body)    -> regeneration report (413 over 8 MiB, nothing applied)
//	GET    /v1/policy                                          -> current policy source
//	GET    /v1/traces[?n=N]                                    -> recent decision traces
//	GET    /v1/traces/{id}                                     -> one decision trace (ring id or 32-hex trace id)
//	GET    /v1/slow[?n=N]                                      -> recent slow-decision captures
//	GET    /v1/analyze                                         -> static-analysis findings
//	GET    /v1/replication           (leader only)             -> per-replica applied epoch, lag, connection state
//	GET    /metrics                  (Prometheus text format)  -> metric registry
//	GET    /healthz                  (text)                    -> liveness (always 200 once serving)
//	GET    /readyz                                             -> readiness (503 until serving cleanly)
//
// Decision telemetry: -trace-sample keeps always-on sampled tracing at
// ~rate (1 % by default, with -trace-rate-limit capping traces/second
// at 100; -trace-sample 0 traces every decision, and a traced decision
// always runs the full cascade), and a client
// can force a fully traced decision by sending an X-Activerbac-Trace
// header (32 hex chars) on GET /v1/check or POST /v1/check-batch — the
// trace is then retrievable at /v1/traces/{id} under that id. The wire
// protocol carries the same id via the TRACE opcode flag. -slow-threshold
// captures decisions slower than the threshold into the /v1/slow ring.
//
// With -debug-addr set, net/http/pprof is served on that (separate,
// opt-in) listener.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"activerbac"
	"activerbac/internal/replicate"
	"activerbac/internal/wire"
)

// config collects the command-line settings.
type config struct {
	addr, policyPath, auditPath, snapshotPath string
	auditSync                                 time.Duration
	traceBuffer                               int
	traceSample                               float64
	traceRateLimit                            float64
	slowThreshold                             time.Duration
	slowBuffer                                int
	debugAddr                                 string
	analyzeMode                               string
	verifyMode                                string

	httpReadHeaderTimeout time.Duration
	httpIdleTimeout       time.Duration

	wireAddr           string
	wireMaxInflight    int
	wireMaxFrame       int
	wireReadTimeout    time.Duration
	wireWriteTimeout   time.Duration
	wireMaxSubscribers int

	mode        string
	leaderAddr  string
	replicaName string
}

// newFlagSet registers rbacd's command-line flags on a new FlagSet
// that parses into cfg.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("rbacd", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", ":8180", "listen address")
	fs.StringVar(&cfg.policyPath, "policy", "", "path to the .acp policy (required)")
	fs.StringVar(&cfg.auditPath, "audit", "",
		"append-only audit log path (optional); audited decisions always run the full cascade, never the verdict cache")
	fs.DurationVar(&cfg.auditSync, "audit-sync", 3*time.Second,
		"audit flush interval bounding crash loss; 0 = flush+fsync every append")
	fs.StringVar(&cfg.snapshotPath, "snapshot", "", "state snapshot path, written on shutdown (optional)")
	// Deprecated: ignored; enforcement runs on one drain. Still parsed
	// because the frozen benchmark/ starts every rbacd with -lanes 0.
	fs.Int("lanes", 0, "deprecated, ignored: enforcement runs on one drain")
	// Deprecated: ignored; the decision fast path is always on. Still
	// parsed because the frozen benchmark/ starts every rbacd with
	// -fastpath on.
	fs.String("fastpath", "on", "deprecated, ignored: the decision fast path is always on; stats at /v1/fastpath")
	fs.IntVar(&cfg.traceBuffer, "trace-buffer", 256, "decision traces retained for /v1/traces; 0 disables tracing")
	fs.Float64Var(&cfg.traceSample, "trace-sample", 0.01,
		"sampled tracing: trace this fraction of decisions (0 = trace every decision); client-requested traces are always honoured")
	fs.Float64Var(&cfg.traceRateLimit, "trace-rate-limit", 100,
		"cap sampled traces per second (0 = no cap); only meaningful with -trace-sample")
	fs.DurationVar(&cfg.slowThreshold, "slow-threshold", 0,
		"capture decisions slower than this into the /v1/slow ring (0 disables)")
	fs.IntVar(&cfg.slowBuffer, "slow-buffer", 64, "slow-decision captures retained for /v1/slow")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "serve net/http/pprof on this address (off when empty)")
	fs.StringVar(&cfg.analyzeMode, "analyze", "warn",
		"static-analysis gate for startup and hot reloads: off, warn or strict")
	fs.StringVar(&cfg.verifyMode, "verify", "off",
		"bounded-verification gate for startup and hot reloads: off, warn or strict")
	fs.DurationVar(&cfg.httpReadHeaderTimeout, "http-read-header-timeout", 10*time.Second,
		"how long an HTTP client may take to send its request headers (slowloris guard); 0 disables")
	fs.DurationVar(&cfg.httpIdleTimeout, "http-idle-timeout", 2*time.Minute,
		"how long an idle HTTP keep-alive connection is kept open; 0 disables")
	fs.StringVar(&cfg.wireAddr, "wire-addr", "",
		"also serve the binary wire protocol on this address (off when empty)")
	fs.IntVar(&cfg.wireMaxInflight, "wire-max-inflight", 0,
		"wire: max requests admitted but unanswered per connection; 0 = protocol default")
	fs.IntVar(&cfg.wireMaxFrame, "wire-max-frame", 0,
		"wire: max frame size in bytes, larger frames drop the connection; 0 = protocol default")
	fs.DurationVar(&cfg.wireReadTimeout, "wire-read-timeout", 0,
		"wire: per-frame read deadline doubling as idle timeout; 0 = protocol default, negative disables")
	fs.DurationVar(&cfg.wireWriteTimeout, "wire-write-timeout", 0,
		"wire: per-flush write deadline; 0 = protocol default, negative disables")
	fs.IntVar(&cfg.wireMaxSubscribers, "wire-max-subscribers", 0,
		"wire: max connections subscribed to epoch pushes; 0 = unlimited")
	fs.StringVar(&cfg.mode, "mode", "leader",
		"replication role: leader (owns the policy, serves SYNC) or replica (syncs from -leader-addr, read-only)")
	fs.StringVar(&cfg.leaderAddr, "leader-addr", "",
		"replica mode: the leader's wire listener address (required)")
	fs.StringVar(&cfg.replicaName, "replica-name", "",
		"replica mode: name reported to the leader's registry (default: hostname)")
	return fs
}

func main() {
	var cfg config
	fs := newFlagSet(&cfg)
	_ = fs.Parse(os.Args[1:]) // ExitOnError: a bad flag exits 2
	switch cfg.mode {
	case "leader":
		if cfg.policyPath == "" {
			fs.Usage()
			os.Exit(2)
		}
	case "replica":
		if cfg.policyPath != "" {
			fmt.Fprintln(os.Stderr, "rbacd: replica mode syncs its policy from the leader; -policy is not allowed")
			os.Exit(2)
		}
		if cfg.leaderAddr == "" {
			fmt.Fprintln(os.Stderr, "rbacd: replica mode needs -leader-addr")
			os.Exit(2)
		}
		if cfg.replicaName == "" {
			host, err := os.Hostname()
			if err != nil || host == "" {
				fmt.Fprintln(os.Stderr, "rbacd: cannot derive -replica-name from hostname; set it explicitly")
				os.Exit(2)
			}
			cfg.replicaName = host
		}
	default:
		fmt.Fprintf(os.Stderr, "rbacd: -mode must be leader or replica (got %q)\n", cfg.mode)
		os.Exit(2)
	}
	switch cfg.analyzeMode {
	case "off", "warn", "strict":
	default:
		fmt.Fprintf(os.Stderr, "rbacd: -analyze must be off, warn or strict (got %q)\n", cfg.analyzeMode)
		os.Exit(2)
	}
	switch cfg.verifyMode {
	case "off", "warn", "strict":
	default:
		fmt.Fprintf(os.Stderr, "rbacd: -verify must be off, warn or strict (got %q)\n", cfg.verifyMode)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		log.Fatal("rbacd: ", err)
	}
}

// options builds the activerbac.Options the served System opens with.
func (cfg config) options() *activerbac.Options {
	return &activerbac.Options{
		AuditPath:            cfg.auditPath,
		TraceBuffer:          cfg.traceBuffer,
		TraceSample:          cfg.traceSample,
		TraceRateLimit:       cfg.traceRateLimit,
		SlowThreshold:        cfg.slowThreshold,
		SlowBuffer:           cfg.slowBuffer,
		AuditSyncEveryAppend: cfg.auditSync == 0,
	}
}

func run(cfg config) error {
	opts := cfg.options()
	// A replica boots empty — its policy and state arrive over the wire
	// from the leader; until then it is simply not ready.
	var sys *activerbac.System
	var err error
	if cfg.mode == "replica" {
		sys, err = activerbac.Open("", opts)
	} else {
		sys, err = activerbac.OpenFile(cfg.policyPath, opts)
	}
	if err != nil {
		return err
	}
	// Close quiesces the drain once more and releases the audit log; it
	// runs after the shutdown sequence below has drained everything.
	defer sys.Close()

	// Startup analysis gate: the rule pool just generated is vetted
	// before the listener opens; strict mode refuses to serve a policy
	// with error-severity conflicts. Warn mode serves anyway but reports
	// the degradation through /readyz. A replica has nothing to vet yet:
	// its gates run inside the sync applier, once per policy change.
	analyzeErrors := false
	if cfg.analyzeMode != "off" && cfg.mode != "replica" {
		findings := sys.Analyze()
		for _, f := range findings {
			log.Print("rbacd: analyze: ", f)
		}
		analyzeErrors = activerbac.HasAnalysisErrors(findings)
		if cfg.analyzeMode == "strict" && analyzeErrors {
			return fmt.Errorf("policy %s has error-severity analysis findings (run with -analyze=warn to serve anyway)", cfg.policyPath)
		}
	}

	// Startup verification gate: the bounded symbolic verifier explores
	// the policy's reachable session states and replays every
	// counterexample before the listener opens. Strict mode refuses to
	// serve a policy with a reachable violation; warn mode serves the
	// findings (and their counterexamples) at GET /v1/verify.
	verifyErrors := false
	var verifyRes activerbac.VerifyResult
	if cfg.verifyMode != "off" && cfg.mode != "replica" {
		res, err := sys.Verify(activerbac.VerifyConfig{})
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		verifyRes = res
		for _, f := range res.Findings {
			log.Print("rbacd: verify: ", f.String())
		}
		verifyErrors = activerbac.HasVerifyErrors(res.Findings)
		if cfg.verifyMode == "strict" && verifyErrors {
			return fmt.Errorf("policy %s has error-severity verification findings (run with -verify=warn to serve anyway)", cfg.policyPath)
		}
	}

	// Buffered audit mode: a background timer bounds how much trail a
	// crash can lose to one flush interval.
	if cfg.auditPath != "" && cfg.auditSync > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go auditFlusher(sys, cfg.auditSync, stop)
	}

	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		log.Printf("rbacd: pprof on %s", dln.Addr())
		go func() {
			if err := http.Serve(dln, debugMux()); !errors.Is(err, net.ErrClosed) {
				log.Print("rbacd: debug server: ", err)
			}
		}()
		defer dln.Close()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt, syscall.SIGTERM)

	srv := &server{sys: sys, analyzeMode: cfg.analyzeMode, verifyMode: cfg.verifyMode,
		verifyRes: verifyRes, wireConfigured: cfg.wireAddr != "", replica: cfg.mode == "replica"}
	srv.analyzeErrors.Store(analyzeErrors)
	srv.verifyErrors.Store(verifyErrors)

	// Leader side of replication: the hub serves SYNC snapshots (one
	// serialization per epoch however many replicas resync) and keeps
	// the registry GET /v1/replication reports.
	if cfg.mode == "leader" {
		srv.hub = replicate.NewHub(sys, hubInstruments(sys))
	}

	// Replica side: the sync loop pulls snapshots from the leader and
	// installs them through the same analyze/verify gates a hot reload
	// passes. It starts before the listeners open — /readyz holds the
	// traffic back until the first sync lands.
	if cfg.mode == "replica" {
		rep, err := replicate.StartReplica(replicate.ReplicaOptions{
			Name:        cfg.replicaName,
			LeaderAddr:  cfg.leaderAddr,
			Applier:     replicaApplier{srv},
			Instruments: replicaInstruments(sys),
			Logf:        log.Printf,
		})
		if err != nil {
			return err
		}
		defer rep.Close()
		srv.rep = rep
	}
	httpSrv := &http.Server{
		Handler: srv.routes(),
		// Slow-client guards: a client trickling headers or parking an
		// idle keep-alive connection must not pin a conn goroutine
		// forever. Per-request handler time stays unbounded (policy
		// uploads can be large); these only bound the non-serving states.
		ReadHeaderTimeout: cfg.httpReadHeaderTimeout,
		IdleTimeout:       cfg.httpIdleTimeout,
	}

	var wireSrv *wire.Server
	if cfg.wireAddr != "" {
		wln, err := net.Listen("tcp", cfg.wireAddr)
		if err != nil {
			return fmt.Errorf("wire listener: %w", err)
		}
		// A leader's backend additionally implements wire.SyncBackend and
		// wire.ReplicaTracker, so SYNC frames reach the hub; a replica's
		// does not, and answers SYNC with ERROR(unsupported).
		var backend wire.Backend = wireBackend{srv}
		if srv.hub != nil {
			backend = leaderWireBackend{wireBackend{srv}, srv.hub}
		}
		wireSrv = wire.NewServer(backend, &wire.ServerOptions{
			MaxFrame:       cfg.wireMaxFrame,
			MaxInFlight:    cfg.wireMaxInflight,
			ReadTimeout:    cfg.wireReadTimeout,
			WriteTimeout:   cfg.wireWriteTimeout,
			MaxSubscribers: cfg.wireMaxSubscribers,
			Instruments:    wireInstruments(sys),
		})
		// Every push-epoch bump — hot reload, role flip, window change,
		// session churn — fans out to subscribed wire connections so
		// embedded client caches invalidate without polling. The hook
		// runs under engine locks; NotifyEpoch is non-blocking.
		sys.OnEpochBump(wireSrv.NotifyEpoch)
		log.Printf("rbacd: wire protocol on %s", wln.Addr())
		srv.wireReady.Store(true)
		go func() {
			if err := wireSrv.Serve(wln); !errors.Is(err, wire.ErrServerClosed) {
				log.Print("rbacd: wire server: ", err)
			}
			srv.wireReady.Store(false)
		}()
	}

	if cfg.mode == "replica" {
		log.Printf("rbacd: replica %q serving on %s (leader %s)",
			cfg.replicaName, ln.Addr(), cfg.leaderAddr)
	} else {
		log.Printf("rbacd: serving on %s (policy %s, %d rules)",
			ln.Addr(), cfg.policyPath, len(sys.Rules()))
	}
	return serve(sys, httpSrv, wireSrv, ln, done, cfg.snapshotPath)
}

// wireBackend adapts the server (not the System directly, so wire
// checks honor the same policy-swap serialization as HTTP handlers) to
// the wire protocol's Backend interface.
type wireBackend struct{ srv *server }

// PolicyEpoch answers POLICY_VERSION. A replica advertises the leader
// push epoch it has applied — the number a fleet operator compares
// across sites — instead of its local snapshot epoch, whose numbering
// is meaningless outside this process.
func (b wireBackend) PolicyEpoch() uint64 {
	if rep := b.srv.rep; rep != nil {
		return rep.AppliedEpoch()
	}
	return b.srv.system().SnapshotEpoch()
}

// PushEpoch and CheckCacheable upgrade the backend to wire.PushBackend:
// SUBSCRIBE answers with the engine's push epoch, which also bumps on
// session-grade changes the policy snapshot epoch does not see.
func (b wireBackend) PushEpoch() uint64 { return b.srv.system().PushEpoch() }

// CheckCacheable answers a CACHE-flagged CHECK: the verdict and whether
// an epoch-tagged client cache may keep it until the next push.
func (b wireBackend) CheckCacheable(session, operation, object string) (allowed, cacheable bool) {
	return b.srv.system().CheckAccessTupleCacheable(session, operation, object)
}

// CheckBatch decides a CHECK_BATCH frame — or a CHECK, which the
// server hands over as a batch of one — in one batch-native engine
// pass. A request's Trace carries over, so a traced request's
// cascade is retained under the client-minted id, resolvable at
// /v1/traces/{id}. The conversion slice is pooled; the strings inside
// were already allocated by the frame decode.
func (b wireBackend) CheckBatch(reqs []wire.CheckRequest, vs []bool) []bool {
	cb := checkConvPool.Get().(*[]activerbac.BatchCheck)
	checks := (*cb)[:0]
	for i := range reqs {
		r := &reqs[i]
		checks = append(checks, activerbac.BatchCheck{
			Session: r.Session, Operation: r.Operation, Object: r.Object,
			Trace: activerbac.TraceID(r.Trace),
		})
	}
	vs = b.srv.system().CheckAccessBatch(checks, vs)
	for i := range checks {
		checks[i] = activerbac.BatchCheck{}
	}
	*cb = checks[:0]
	checkConvPool.Put(cb)
	return vs
}

var checkConvPool = sync.Pool{New: func() any {
	b := make([]activerbac.BatchCheck, 0, 256)
	return &b
}}

// leaderWireBackend upgrades the wire backend with the replication
// leader's halves: wire.SyncBackend (SYNC frames stream hub snapshots)
// and wire.ReplicaTracker (connection teardown marks the registry row
// disconnected).
type leaderWireBackend struct {
	wireBackend
	hub *replicate.Hub
}

func (b leaderWireBackend) SyncSnapshot(replica string, applied uint64) (wire.SyncState, error) {
	return b.hub.SyncSnapshot(replica, applied)
}

func (b leaderWireBackend) ReplicaDisconnected(replica string) {
	b.hub.ReplicaDisconnected(replica)
}

// replicaApplier installs synced snapshots on a replica. A snapshot
// whose policy differs from the live source first passes the reload
// gates POST /v1/policy does; most syncs carry session-grade churn
// under an unchanged policy and skip straight to the install. The
// server mutex serializes installs against request handling exactly
// like POST /v1/policy.
type replicaApplier struct{ srv *server }

func (a replicaApplier) Apply(data []byte) error {
	s := a.srv
	src, err := activerbac.SyncSnapshotPolicy(data)
	if err != nil {
		return err
	}
	install := func() error { return s.sys.InstallSyncSnapshot(data) }
	if src == s.system().PolicySource() {
		s.mu.Lock()
		defer s.mu.Unlock()
		return install()
	}
	g, err := s.gate(src)
	if err != nil {
		return fmt.Errorf("sync gate: %w", err)
	}
	return s.adopt(g, install)
}

// hubInstruments binds the leader hub's hooks to the activerbac_sync_*
// families.
func hubInstruments(sys *activerbac.System) *replicate.HubInstruments {
	o := sys.Observer()
	return &replicate.HubInstruments{
		Sync:        func() { o.SyncTotal.Inc() },
		SyncBytes:   func(n float64) { o.SyncBytes.Add(n) },
		SyncSeconds: func(s float64) { o.SyncSeconds.Observe(s) },
	}
}

// replicaInstruments binds the replica loop's hooks to the
// activerbac_sync_* families plus the activerbac_replica_lag gauge.
func replicaInstruments(sys *activerbac.System) *replicate.ReplicaInstruments {
	o := sys.Observer()
	return &replicate.ReplicaInstruments{
		Sync:        func() { o.SyncTotal.Inc() },
		SyncBytes:   func(n float64) { o.SyncBytes.Add(n) },
		SyncSeconds: func(s float64) { o.SyncSeconds.Observe(s) },
		Lag:         func(lag float64) { o.ReplicaLag.Set(lag) },
	}
}

// wireInstruments binds the wire server's transport hooks to the
// activerbac_wire_* metric families.
func wireInstruments(sys *activerbac.System) *wire.Instruments {
	o := sys.Observer()
	return &wire.Instruments{
		Request:     func(opcode string) { o.WireRequests.With(opcode).Inc() },
		Error:       func(opcode string) { o.WireErrors.With(opcode).Inc() },
		Inflight:    func(delta float64) { o.WireInflight.Add(delta) },
		RTT:         func(opcode string, seconds float64) { o.WireRTT.With(opcode).Observe(seconds) },
		Push:        func() { o.EpochPushes.Inc() },
		Subscribers: func(delta float64) { o.WireSubscribers.Add(delta) },
	}
}

// auditFlusher periodically flushes the buffered audit log until stop
// closes.
func auditFlusher(sys *activerbac.System, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := sys.SyncAudit(); err != nil {
				log.Print("rbacd: audit sync: ", err)
			}
		case <-stop:
			return
		}
	}
}

// debugMux serves the pprof suite; a dedicated mux (not the API mux, not
// http.DefaultServeMux) keeps profiling off the public listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs httpSrv on ln until a signal arrives, then shuts down
// gracefully: stop accepting connections, let in-flight requests finish
// (http.Server.Shutdown blocks until handlers return; the wire server
// drains its admitted frames the same way), quiesce the enforcement
// drain so every admitted request's rule cascade settles, and only then
// write the snapshot. The audit log is closed afterwards by the
// caller's sys.Close. wireSrv may be nil.
func serve(sys *activerbac.System, httpSrv *http.Server, wireSrv *wire.Server, ln net.Listener,
	signals <-chan os.Signal, snapshotPath string) error {
	drained := make(chan struct{})
	go func() {
		<-signals
		log.Print("rbacd: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		if wireSrv != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := wireSrv.Shutdown(ctx); err != nil {
					log.Print("rbacd: wire shutdown: ", err)
				}
			}()
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Print("rbacd: shutdown: ", err)
		}
		wg.Wait()
		close(drained)
	}()

	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-drained
	sys.Quiesce()
	if snapshotPath != "" {
		if err := sys.SaveState(snapshotPath); err != nil {
			log.Print("rbacd: snapshot: ", err)
		}
	}
	return nil
}

// gateResult is what the reload gates found in an incoming policy.
type gateResult struct {
	// findings are the rejecting gate's findings, for the 422 body.
	findings any
	// verifyRes is the bounded-verification run (zero with -verify=off).
	verifyRes     activerbac.VerifyResult
	analyzeErrors bool
	verifyErrors  bool
}

// gate runs the reload gates over an incoming policy on scratch
// engines, before the live pool is touched: static analysis, then
// bounded verification (its counterexamples replayed), each unless its
// mode is off. An error rejects the policy: it does not compile, or a
// strict gate found error-severity findings.
func (s *server) gate(src string) (gateResult, error) {
	var g gateResult
	if s.analyzeMode != "off" {
		findings, err := activerbac.AnalyzePolicy(src, time.Now())
		if err != nil {
			return g, err
		}
		for _, f := range findings {
			log.Print("rbacd: analyze: ", f)
		}
		g.analyzeErrors = activerbac.HasAnalysisErrors(findings)
		if s.analyzeMode == "strict" && g.analyzeErrors {
			g.findings = findings
			return g, errors.New("policy rejected by static analysis")
		}
	}
	if s.verifyMode != "off" {
		res, err := activerbac.VerifyPolicy(src, activerbac.VerifyConfig{})
		if err != nil {
			return g, err
		}
		for _, f := range res.Findings {
			log.Print("rbacd: verify: ", f.String())
		}
		g.verifyRes = res
		g.verifyErrors = activerbac.HasVerifyErrors(res.Findings)
		if s.verifyMode == "strict" && g.verifyErrors {
			g.findings = res.Findings
			return g, errors.New("policy rejected by bounded verification")
		}
	}
	return g, nil
}

// adopt runs the install of a gated policy under the server mutex and,
// when it succeeds, makes the gate's findings the live readiness state.
func (s *server) adopt(g gateResult, install func() error) error {
	s.mu.Lock()
	err := install()
	if err == nil && s.verifyMode != "off" {
		s.verifyRes = g.verifyRes
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.analyzeErrors.Store(g.analyzeErrors)
	s.verifyErrors.Store(g.verifyErrors)
	return nil
}

// server handles the HTTP API; the mutex serializes policy swaps
// against request handling (enforcement itself is already
// engine-serialized).
type server struct {
	mu          sync.RWMutex
	sys         *activerbac.System
	analyzeMode string
	verifyMode  string

	// verifyRes caches the last bounded-verification run (startup or
	// hot reload) for GET /v1/verify; guarded by mu.
	verifyRes activerbac.VerifyResult

	// Readiness state for /readyz: whether the live policy carries
	// error-severity analysis or verification findings (warn modes
	// serve it anyway, but readiness reports the degradation), and
	// whether the optional wire listener is configured and accepting.
	analyzeErrors  atomic.Bool
	verifyErrors   atomic.Bool
	wireConfigured bool
	wireReady      atomic.Bool

	// Replication role: exactly one of hub (leader) or rep (replica) is
	// set when -mode is in play; both are assigned before any listener
	// serves and read-only after.
	replica bool
	hub     *replicate.Hub
	rep     *replicate.Replica
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.mutating(s.createSession))
	mux.HandleFunc("DELETE /v1/sessions", s.mutating(s.deleteSession))
	mux.HandleFunc("POST /v1/activate", s.mutating(s.activate))
	mux.HandleFunc("POST /v1/deactivate", s.mutating(s.deactivate))
	mux.HandleFunc("GET /v1/check", s.check)
	mux.HandleFunc("POST /v1/check-batch", s.checkBatch)
	mux.HandleFunc("POST /v1/assign", s.mutating(s.assign))
	mux.HandleFunc("POST /v1/deassign", s.mutating(s.deassign))
	mux.HandleFunc("POST /v1/users", s.mutating(s.addUser))
	mux.HandleFunc("POST /v1/roles/enable", s.mutating(s.enableRole))
	mux.HandleFunc("POST /v1/roles/disable", s.mutating(s.disableRole))
	mux.HandleFunc("POST /v1/context", s.mutating(s.setContext))
	mux.HandleFunc("GET /v1/context", s.getContext)
	mux.HandleFunc("GET /v1/verify", s.verify)
	mux.HandleFunc("GET /v1/rules", s.rules)
	mux.HandleFunc("GET /v1/stats", s.stats)
	mux.HandleFunc("GET /v1/fastpath", s.fastpath)
	mux.HandleFunc("GET /v1/alerts", s.alerts)
	mux.HandleFunc("GET /v1/policy", s.getPolicy)
	mux.HandleFunc("POST /v1/policy", s.mutating(s.putPolicy))
	mux.HandleFunc("GET /v1/replication", s.replication)
	mux.HandleFunc("GET /v1/traces", s.traces)
	mux.HandleFunc("GET /v1/traces/{id}", s.traceByID)
	mux.HandleFunc("GET /v1/slow", s.slow)
	mux.HandleFunc("GET /v1/analyze", s.analyze)
	mux.HandleFunc("GET /metrics", s.metrics)
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.HandleFunc("GET /readyz", s.readyz)
	return mux
}

// mutating guards a state-changing handler: a replica's store is a
// synced copy of the leader's, so every mutation answers 403 here and
// belongs at the leader. On a leader it is the identity.
func (s *server) mutating(h http.HandlerFunc) http.HandlerFunc {
	if !s.replica {
		return h
	}
	return func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusForbidden,
			map[string]string{"error": "replica is read-only; send mutations to the leader"})
	}
}

// replication serves the leader's replica registry.
func (s *server) replication(w http.ResponseWriter, _ *http.Request) {
	if s.hub == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "not a leader"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":    s.system().PushEpoch(),
		"replicas": s.hub.Status(),
	})
}

// request is the shared JSON request body shape.
type request struct {
	User    string `json:"user,omitempty"`
	Session string `json:"session,omitempty"`
	Role    string `json:"role,omitempty"`
}

func decode(w http.ResponseWriter, r *http.Request, into *request) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(into); err != nil {
		http.Error(w, `{"error":"bad request body"}`, http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr maps engine errors to HTTP statuses: denials are 403,
// missing entities 404, conflicts 409, the rest 500.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, activerbac.ErrDenied),
		errors.Is(err, activerbac.ErrUserLocked),
		errors.Is(err, activerbac.ErrSSD),
		errors.Is(err, activerbac.ErrDSD),
		errors.Is(err, activerbac.ErrCardinality):
		status = http.StatusForbidden
	case errors.Is(err, activerbac.ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, activerbac.ErrExists):
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) system() *activerbac.System {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sys
}

func (s *server) createSession(w http.ResponseWriter, r *http.Request) {
	var req request
	if !decode(w, r, &req) {
		return
	}
	sid, err := s.system().CreateSession(activerbac.UserID(req.User))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"session": string(sid)})
}

func (s *server) deleteSession(w http.ResponseWriter, r *http.Request) {
	var req request
	if !decode(w, r, &req) {
		return
	}
	if err := s.system().DeleteSession(activerbac.SessionID(req.Session)); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *server) activate(w http.ResponseWriter, r *http.Request) {
	var req request
	if !decode(w, r, &req) {
		return
	}
	err := s.system().AddActiveRole(
		activerbac.UserID(req.User), activerbac.SessionID(req.Session), activerbac.RoleID(req.Role))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *server) deactivate(w http.ResponseWriter, r *http.Request) {
	var req request
	if !decode(w, r, &req) {
		return
	}
	err := s.system().DropActiveRole(
		activerbac.UserID(req.User), activerbac.SessionID(req.Session), activerbac.RoleID(req.Role))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// Pre-encoded GET /v1/check bodies: the plain-check hot path below
// writes one of these instead of running json.Encoder per request.
var (
	checkBodyAllow = []byte("{\"allowed\":true}\n")
	checkBodyDeny  = []byte("{\"allowed\":false}\n")
)

// traceHeader is the HTTP carrier of a client-minted trace id: its
// presence forces a fully traced decision retained under that id.
const traceHeader = "X-Activerbac-Trace"

// traceID pulls a client-minted trace id off the request. ok is false
// only when the header is present but malformed (the caller answers
// 400); an absent header yields a zero id with ok true.
func traceID(w http.ResponseWriter, r *http.Request) (activerbac.TraceID, bool) {
	h := r.Header.Get(traceHeader)
	if h == "" {
		return activerbac.TraceID{}, true
	}
	tid, err := activerbac.ParseTraceID(h)
	if err != nil || tid.IsZero() {
		http.Error(w, `{"error":"bad `+traceHeader+` header: want 32 hex chars, nonzero"}`, http.StatusBadRequest)
		return activerbac.TraceID{}, false
	}
	// Echo the id so callers correlate the response with /v1/traces/{id}.
	w.Header().Set(traceHeader, tid.String())
	return tid, true
}

func (s *server) check(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if purpose := q.Get("purpose"); purpose != "" {
		sid := activerbac.SessionID(q.Get("session"))
		perm := activerbac.Permission{Operation: q.Get("operation"), Object: q.Get("object")}
		allowed := s.system().CheckAccessForPurpose(sid, perm, purpose)
		writeJSON(w, http.StatusOK, map[string]bool{"allowed": allowed})
		return
	}
	if q.Get("explain") != "" {
		sid := activerbac.SessionID(q.Get("session"))
		perm := activerbac.Permission{Operation: q.Get("operation"), Object: q.Get("object")}
		ex := s.system().ExplainAccess(sid, perm)
		writeJSON(w, http.StatusOK, ex)
		return
	}
	// The plain check is the hot path: a batch of one, traced when the
	// request carries a trace header, with a pre-encoded verdict body.
	tid, ok := traceID(w, r)
	if !ok {
		return
	}
	check := [1]activerbac.BatchCheck{{
		Session: q.Get("session"), Operation: q.Get("operation"), Object: q.Get("object"),
		Trace: tid,
	}}
	var verdict [1]bool
	body := checkBodyDeny
	if s.system().CheckAccessBatch(check[:], verdict[:0])[0] {
		body = checkBodyAllow
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// checkBatch decides a whole batch of access checks in one batch-native
// engine pass (System.CheckAccessBatch): one snapshot capture, one
// drain crossing for the misses. The batch size shares the wire protocol's
// MaxBatch bound so both transports accept the same frames.
func (s *server) checkBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Checks []activerbac.BatchCheck `json:"checks"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		http.Error(w, `{"error":"bad request body"}`, http.StatusBadRequest)
		return
	}
	if len(req.Checks) > wire.MaxBatch {
		http.Error(w, fmt.Sprintf(`{"error":"batch of %d exceeds max %d"}`, len(req.Checks), wire.MaxBatch),
			http.StatusBadRequest)
		return
	}
	tid, ok := traceID(w, r)
	if !ok {
		return
	}
	if len(req.Checks) > 0 {
		req.Checks[0].Trace = tid
	}
	verdicts := s.system().CheckAccessBatch(req.Checks, nil)
	if verdicts == nil {
		verdicts = []bool{} // encode an empty batch as [], not null
	}
	writeJSON(w, http.StatusOK, map[string][]bool{"verdicts": verdicts})
}

func (s *server) assign(w http.ResponseWriter, r *http.Request) {
	var req request
	if !decode(w, r, &req) {
		return
	}
	if err := s.system().AssignUser(activerbac.UserID(req.User), activerbac.RoleID(req.Role)); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *server) deassign(w http.ResponseWriter, r *http.Request) {
	var req request
	if !decode(w, r, &req) {
		return
	}
	if err := s.system().DeassignUser(activerbac.UserID(req.User), activerbac.RoleID(req.Role)); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *server) addUser(w http.ResponseWriter, r *http.Request) {
	var req request
	if !decode(w, r, &req) {
		return
	}
	if err := s.system().AddUser(activerbac.UserID(req.User)); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *server) enableRole(w http.ResponseWriter, r *http.Request) {
	var req request
	if !decode(w, r, &req) {
		return
	}
	if err := s.system().EnableRole(activerbac.RoleID(req.Role)); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *server) disableRole(w http.ResponseWriter, r *http.Request) {
	var req request
	if !decode(w, r, &req) {
		return
	}
	if err := s.system().DisableRole(activerbac.RoleID(req.Role)); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// contextRequest carries environmental updates.
type contextRequest struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

func (s *server) setContext(w http.ResponseWriter, r *http.Request) {
	var req contextRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil || req.Key == "" {
		http.Error(w, `{"error":"want {\"key\":K,\"value\":V}"}`, http.StatusBadRequest)
		return
	}
	if err := s.system().SetContext(req.Key, req.Value); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *server) getContext(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, `{"error":"missing key parameter"}`, http.StatusBadRequest)
		return
	}
	value, ok := s.system().GetContext(key)
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "value": value, "set": ok})
}

// verify serves the live rule-pool consistency check plus the cached
// bounded-verification findings from the last startup or hot-reload
// run (empty when -verify=off). The legacy {ok, problems} fields keep
// their pre-verifier meaning extended by the new findings: ok is false
// when the pool is inconsistent or any finding is error severity.
func (s *server) verify(w http.ResponseWriter, _ *http.Request) {
	errs := s.system().VerifyRules()
	msgs := make([]string, len(errs))
	for i, e := range errs {
		msgs[i] = e.Error()
	}
	s.mu.RLock()
	res := s.verifyRes
	s.mu.RUnlock()
	findings := res.Findings
	if findings == nil {
		findings = []activerbac.VerifyFinding{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":        len(errs) == 0 && !activerbac.HasVerifyErrors(findings),
		"problems":  msgs,
		"mode":      s.verifyMode,
		"findings":  findings,
		"states":    res.States,
		"truncated": res.Truncated,
	})
}

func (s *server) rules(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.system().Rules())
}

func (s *server) stats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.system().Stats())
}

func (s *server) fastpath(w http.ResponseWriter, _ *http.Request) {
	sys := s.system()
	writeJSON(w, http.StatusOK, struct {
		activerbac.FastPathStats
		SnapshotEpoch uint64 `json:"snapshotEpoch"`
	}{sys.FastPathStats(), sys.SnapshotEpoch()})
}

func (s *server) alerts(w http.ResponseWriter, _ *http.Request) {
	alerts := s.system().Alerts()
	if alerts == nil {
		alerts = []activerbac.Alert{}
	}
	writeJSON(w, http.StatusOK, alerts)
}

func (s *server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.system().WriteMetrics(w); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}

func (s *server) traces(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			http.Error(w, `{"error":"bad n parameter"}`, http.StatusBadRequest)
			return
		}
		n = parsed
	}
	traces, err := s.system().RecentTraces(n)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	if traces == nil {
		traces = []activerbac.TraceData{}
	}
	writeJSON(w, http.StatusOK, traces)
}

// traceByID serves one retained trace by either identity: a 32-hex
// client-minted trace id (as sent in X-Activerbac-Trace or on the wire
// TRACE flag), or the ring's own numeric sequence id.
func (s *server) traceByID(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	var td activerbac.TraceData
	var ok bool
	var err error
	if tid, perr := activerbac.ParseTraceID(raw); perr == nil {
		td, ok, err = s.system().TraceByTraceID(tid)
	} else {
		id, perr := strconv.ParseUint(raw, 10, 64)
		if perr != nil {
			http.Error(w, `{"error":"bad trace id: want a ring id or 32 hex chars"}`, http.StatusBadRequest)
			return
		}
		td, ok, err = s.system().TraceByID(id)
	}
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "trace not retained"})
		return
	}
	writeJSON(w, http.StatusOK, td)
}

// slow serves the slow-decision ring, newest first.
func (s *server) slow(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			http.Error(w, `{"error":"bad n parameter"}`, http.StatusBadRequest)
			return
		}
		n = parsed
	}
	recs, err := s.system().SlowDecisions(n)
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	if recs == nil {
		recs = []activerbac.SlowRecord{}
	}
	writeJSON(w, http.StatusOK, recs)
}

// healthz is pure liveness: the process is up and the handler runs.
func (s *server) healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// readyQueueDepth is the drain queue depth beyond which /readyz
// reports the engine as backlogged and flips to 503 so load balancers
// shed traffic until the drain catches up.
const readyQueueDepth = 4096

// readyz is readiness: the policy is loaded and clean, the enforcement
// drain keeps up, and the wire listener (when configured) accepts.
func (s *server) readyz(w http.ResponseWriter, _ *http.Request) {
	var problems []string
	if s.analyzeErrors.Load() {
		problems = append(problems, "live policy has error-severity analysis findings")
	}
	if s.verifyErrors.Load() {
		problems = append(problems, "live policy has error-severity verification findings")
	}
	if q := s.system().Stats().Queued; q > readyQueueDepth {
		problems = append(problems, fmt.Sprintf("enforcement drain backlogged: %d queued > %d", q, readyQueueDepth))
	}
	if s.wireConfigured && !s.wireReady.Load() {
		problems = append(problems, "wire listener not accepting")
	}
	if s.rep != nil && !s.rep.Synced() {
		problems = append(problems, "replica awaiting first sync from leader")
	}
	if len(problems) > 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "problems": problems})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func (s *server) getPolicy(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.system().PolicySource())
}

// analyze runs the static analyzer over the live system.
func (s *server) analyze(w http.ResponseWriter, _ *http.Request) {
	findings := s.system().Analyze()
	if findings == nil {
		findings = []activerbac.Finding{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       !activerbac.HasAnalysisErrors(findings),
		"findings": findings,
	})
}

// maxPolicyBody caps a POST /v1/policy body. A longer body is refused
// whole: applying the prefix that fits would silently drop statements.
const maxPolicyBody = 8 << 20

func (s *server) putPolicy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPolicyBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				map[string]string{"error": fmt.Sprintf("policy body exceeds %d bytes", maxPolicyBody)})
			return
		}
		http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
		return
	}
	g, err := s.gate(string(body))
	var rep activerbac.Report
	if err == nil {
		err = s.adopt(g, func() (err error) {
			rep, err = s.sys.ApplyPolicy(string(body))
			return err
		})
	}
	if err != nil {
		resp := map[string]any{"error": err.Error()}
		if g.findings != nil {
			resp["findings"] = g.findings
		}
		writeJSON(w, http.StatusUnprocessableEntity, resp)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
