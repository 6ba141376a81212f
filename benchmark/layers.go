package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"activerbac"
	"activerbac/internal/clock"
	"activerbac/internal/core"
	"activerbac/internal/event"
	"activerbac/internal/policy"
	"activerbac/internal/rbac"
	"activerbac/internal/replicate"
	"activerbac/internal/rulegen"
	"activerbac/internal/sentinel"
	"activerbac/internal/store"
	"activerbac/internal/wire"
)

// The in-process half of the traced run: timed calls into each layer's
// public functions, on the workload's own policy and session state.
// Nothing here touches the children; the numbers say what each layer
// costs when called directly, which is what the remote numbers are
// split against.

// microBudget is how long one micro-measurement loops at the reference
// scale. The medians settle long before; the budget is what keeps ~40 of
// them inside a run.
const microBudget = 60 * time.Millisecond

// layerSet collects per-layer metrics; the unit follows from the name.
type layerSet map[string]metric

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"), strings.HasSuffix(name, "_ns_per_tuple"):
		return "ns"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_check"), strings.HasSuffix(name, "_us_per_op"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_bytes"), strings.HasSuffix(name, "_bytes_per_epoch"):
		return "B"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_over_baseline"):
		return "share"
	default:
		return "count"
	}
}

// setTime stores a duration in the unit the metric's name carries.
func (ls layerSet) setTime(name string, d time.Duration, n int) {
	v := float64(d)
	switch unitOf(name) {
	case "us":
		v /= 1e3
	case "ms":
		v /= 1e6
	case "s":
		v /= 1e9
	}
	ls[name] = metric{Value: v, Unit: unitOf(name), N: n}
}

func (ls layerSet) setCount(name string, v float64, n int) {
	ls[name] = metric{Value: v, Unit: unitOf(name), N: n}
}

func (ls layerSet) setDerived(name string, v float64, n int) {
	ls[name] = metric{Value: v, Unit: unitOf(name), N: n, Derived: true}
}

// ns returns a stored time metric back as a duration, for derivations.
func (ls layerSet) ns(name string) float64 {
	m := ls[name]
	switch m.Unit {
	case "us":
		return m.Value * 1e3
	case "ms":
		return m.Value * 1e6
	case "s":
		return m.Value * 1e9
	}
	return m.Value
}

// timeCalls measures f, which performs batch calls of the operation
// under test: it repeats f until the budget is spent, divides each
// repetition by batch, and returns the median per-call time and the
// number of calls. Operations under a microsecond are given a batch of
// at least 1000, so the clock is read once per thousand calls.
func timeCalls(budget time.Duration, batch int, f func()) (time.Duration, int) {
	var per []time.Duration
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		f()
		per = append(per, time.Since(t0)/time.Duration(batch))
		if len(per) >= 1<<16 {
			break
		}
	}
	return medianDuration(per), len(per) * batch
}

// serverOptions is what the fixed deployment line turns into inside
// rbacd (cmd/rbacd/main.go: run).
func serverOptions() *activerbac.Options {
	return &activerbac.Options{
		Lanes: activerbac.LanesAuto, Metrics: true, FastPath: true,
		TraceBuffer: 256, TraceSample: 0.01, TraceRateLimit: 100,
	}
}

// stack is the engine the benchmark assembles itself, below the facade.
type stack struct {
	eng *sentinel.Engine
	gen *rulegen.Generator
}

func newStack(spec *policy.Spec) (*stack, error) {
	eng := sentinel.NewEngine(clock.NewReal(), sentinel.WithLanes(runtime.NumCPU()), sentinel.WithFastPath())
	gen, err := rulegen.New(eng)
	if err != nil {
		return nil, err
	}
	if err := gen.Load(spec); err != nil {
		return nil, err
	}
	return &stack{eng: eng, gen: gen}, nil
}

// inProcess holds the three copies of the workload's state the layer
// measurements run on, each with the plan's sessions loaded, and each
// session's id in each of them.
type inProcess struct {
	p      *plan
	budget time.Duration      // of one micro-measurement
	on     *activerbac.System // as rbacd opens it
	off    *activerbac.System // the same without Options.Metrics
	st     *stack
	onSID  map[*sess]string
	offSID map[*sess]string
	stSID  map[*sess]string
}

func (ip *inProcess) close() {
	ip.on.Close()
	ip.off.Close()
	ip.st.eng.Quiesce()
}

// loadSessions replays the plan's sessions through create and activate.
func loadSessions(p *plan, create func(user string) (string, error), activate func(user, sid, role string) error) (map[*sess]string, error) {
	ids := make(map[*sess]string, len(p.sessions))
	for _, s := range p.sessions {
		sid, err := create(s.user)
		if err != nil {
			return nil, err
		}
		ids[s] = sid
		err = activate(s.user, sid, s.role)
		if (err == nil) != s.wantActive {
			return nil, fmt.Errorf("in-process activation of %s for %s: got %v, oracle says allowed=%v", s.role, s.user, err, s.wantActive)
		}
	}
	return ids, nil
}

// stackDecide sends one request event through the assembled engine, as
// the facade's decide does.
func (st *stack) decide(ev string, params event.Params) (*sentinel.Decision, error) {
	dec, err := st.eng.Decide(ev, params)
	if err != nil {
		return nil, err
	}
	if allowed, reason := dec.Verdict(); !allowed {
		return dec, errors.New(reason)
	}
	return dec, nil
}

// openInProcess builds the three systems and records what building
// them costs: policy.parse_ms, analyze.gate_ms, facade.open_ms,
// rulegen.load_ms, rulegen.rules_total.
func openInProcess(p *plan, ls layerSet, budget time.Duration) (*inProcess, error) {
	d, n := timeCalls(budget, 1, func() { _, _ = policy.ParseString(p.source) })
	ls.setTime("policy.parse_ms", d, n)

	t0 := time.Now()
	if _, err := activerbac.AnalyzePolicy(p.source, time.Now()); err != nil {
		return nil, err
	}
	ls.setTime("analyze.gate_ms", time.Since(t0), 1)

	ip := &inProcess{p: p, budget: budget}
	var err error
	t0 = time.Now()
	if ip.on, err = activerbac.Open(p.source, serverOptions()); err != nil {
		return nil, err
	}
	ls.setTime("facade.open_ms", time.Since(t0), 1)
	opts := serverOptions()
	opts.Metrics, opts.TraceBuffer = false, 0
	if ip.off, err = activerbac.Open(p.source, opts); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if ip.st, err = newStack(p.spec); err != nil {
		return nil, err
	}
	ls.setTime("rulegen.load_ms", time.Since(t0), 1)
	ls.setCount("rulegen.rules_total", float64(ip.st.eng.Pool().Len()), 1)

	viaSystem := func(sys *activerbac.System) (map[*sess]string, error) {
		return loadSessions(p,
			func(user string) (string, error) {
				sid, err := sys.CreateSession(activerbac.UserID(user))
				return string(sid), err
			},
			func(user, sid, role string) error {
				return sys.AddActiveRole(activerbac.UserID(user), activerbac.SessionID(sid), activerbac.RoleID(role))
			})
	}
	if ip.onSID, err = viaSystem(ip.on); err != nil {
		return nil, err
	}
	if ip.offSID, err = viaSystem(ip.off); err != nil {
		return nil, err
	}
	ip.stSID, err = loadSessions(p,
		func(user string) (string, error) {
			dec, err := ip.st.decide(rulegen.EvCreateSession, event.Params{"user": user})
			if err != nil {
				return "", err
			}
			sid, _ := dec.Result().(string)
			return sid, nil
		},
		func(user, sid, role string) error {
			_, err := ip.st.decide(rulegen.EvAddActiveRole(rbac.RoleID(role)), event.Params{"user": user, "session": sid})
			return err
		})
	return ip, err
}

// universe lists every allowed tuple of the plan's probes once, in a
// seeded order: a walk over it is a stream of verdict-cache misses,
// a second walk over the same prefix a stream of hits.
func (p *plan) universe(rng *rand.Rand, limit int) []tuple {
	var all []tuple
	for _, s := range p.probes {
		for _, perm := range p.permsOf(s.role) {
			all = append(all, tuple{s: s, perm: perm, want: true})
		}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if len(all) > limit {
		all = all[:limit]
	}
	return all
}

// missBatch is how many first-time checks one miss measurement walks,
// and hitBatch how many repeat checks one hit measurement times at once.
const (
	missBatch = 4096
	hitBatch  = 1024
)

// checkLayers times the read path top-down on the same tuples: facade,
// engine, store, and the baseline engine beside them.
func (ip *inProcess) checkLayers(ls layerSet, seed int64) error {
	p, budget := ip.p, ip.budget
	rng := rand.New(rand.NewSource(seed))
	uni := p.universe(rng, 3*missBatch)
	if len(uni) < 3 {
		return fmt.Errorf("plan: universe of %d tuples is too small to measure", len(uni))
	}
	third := len(uni) / 3
	missOn, missOff, missSt := uni[:third], uni[third:2*third], uni[2*third:]

	// Misses: each tuple's first check cascades and is then cached, so a
	// miss can be timed once per tuple and every call reads the clock.
	timeMisses := func(ts []tuple, check func(t tuple) bool) (time.Duration, int, error) {
		lat := make([]time.Duration, len(ts))
		for i, t := range ts {
			t0 := time.Now()
			ok := check(t)
			lat[i] = time.Since(t0)
			if !ok {
				return 0, 0, fmt.Errorf("in-process check of %s %v denied, oracle allows", t.s.user, t.perm)
			}
		}
		return medianDuration(lat), len(lat), nil
	}
	// Hits: the same tuples again, hitBatch per clock read.
	timeHits := func(ts []tuple, check func(t tuple) bool) (time.Duration, int) {
		if len(ts) > hitBatch {
			ts = ts[:hitBatch]
		}
		return timeCalls(budget, len(ts), func() {
			for _, t := range ts {
				check(t)
			}
		})
	}
	onCheck := func(t tuple) bool { return ip.on.CheckAccessTuple(ip.onSID[t.s], t.perm.Operation, t.perm.Object) }
	offCheck := func(t tuple) bool { return ip.off.CheckAccessTuple(ip.offSID[t.s], t.perm.Operation, t.perm.Object) }
	stCheck := func(t tuple) bool {
		dec, err := ip.st.eng.DecideCheck(rulegen.EvCheckAccess, t.s.user, ip.stSID[t.s], t.perm.Operation, t.perm.Object)
		return err == nil && dec.Allowed()
	}

	d, n, err := timeMisses(missOn, onCheck)
	if err != nil {
		return err
	}
	ls.setTime("facade.check_miss_us", d, n)
	d, n = timeHits(missOn, onCheck)
	ls.setTime("facade.check_hit_ns", d, n)

	offMiss, n, err := timeMisses(missOff, offCheck)
	if err != nil {
		return err
	}
	offHit, _ := timeHits(missOff, offCheck)
	// Metrics on against metrics off, base = off. The two systems walk
	// different thirds of the universe, of the same shape.
	ls.setDerived("obs.metrics_overhead_miss_share", ls.ns("facade.check_miss_us")/float64(offMiss)-1, n)
	ls.setDerived("obs.metrics_overhead_hit_share", ls.ns("facade.check_hit_ns")/float64(offHit)-1, n)

	d, n, err = timeMisses(missSt, stCheck)
	if err != nil {
		return err
	}
	ls.setTime("sentinel.decide_miss_us", d, n)
	d, n = timeHits(missSt, stCheck)
	ls.setTime("sentinel.decide_hit_ns", d, n)

	stStore := ip.st.eng.Store()
	d, n = timeHits(missSt, func(t tuple) bool {
		return stStore.CheckAccess(rbac.SessionID(ip.stSID[t.s]), t.perm)
	})
	ls.setTime("rbac.check_access_ns", d, n)
	d, n = timeHits(missSt, func(t tuple) bool { return p.oracle.CheckAccess(t.s.osid, t.perm) })
	ls.setTime("baseline.check_ns", d, n)
	// The E1 gap: the rule engine's uncached decision over the direct
	// check, base = baseline.check_ns.
	ls.setDerived("facade.owte_over_baseline", ls.ns("facade.check_miss_us")/ls.ns("baseline.check_ns"), n)

	// Batches: single-session frames as cold_batch sends them.
	frame := make([]tuple, batchTuples)
	checks := make([]activerbac.BatchCheck, batchTuples)
	tuples := make([]sentinel.CheckTuple, batchTuples)
	var verdicts []bool
	d, n = timeCalls(budget, batchTuples, func() {
		p.fillBatch(rng, frame)
		for i, t := range frame {
			checks[i] = activerbac.BatchCheck{Session: ip.onSID[t.s], Operation: t.perm.Operation, Object: t.perm.Object}
		}
		verdicts = ip.on.CheckAccessBatch(checks, verdicts)
	})
	ls.setTime("facade.batch_ns_per_tuple", d, n)
	var vds []sentinel.Verdict
	d, n = timeCalls(budget, batchTuples, func() {
		p.fillBatch(rng, frame)
		for i, t := range frame {
			tuples[i] = sentinel.CheckTuple{User: t.s.user, Session: ip.stSID[t.s], Operation: t.perm.Operation, Object: t.perm.Object}
		}
		vds, _ = ip.st.eng.DecideCheckBatch(rulegen.EvCheckAccess, tuples, vds[:0])
	})
	ls.setTime("sentinel.decide_batch_ns_per_tuple", d, n)

	d, n = timeCalls(budget, 1, func() { _ = ip.on.WriteMetrics(io.Discard) })
	ls.setTime("obs.scrape_ms", d, n)
	return nil
}

// mutateLayers times the write path at the workload's live-session
// count: one extra session's lifecycle through the facade, and through
// the store alone (the copy-on-write publication cost).
func (ip *inProcess) mutateLayers(ls layerSet) error {
	budget := ip.budget
	s := ip.p.probes[len(ip.p.probes)-1]
	user, role := activerbac.UserID(s.user), activerbac.RoleID(s.role)
	var create, activate, drop []time.Duration
	deadline := time.Now().Add(2 * budget)
	for len(create) < 8 || time.Now().Before(deadline) {
		t0 := time.Now()
		sid, err := ip.on.CreateSession(user)
		t1 := time.Now()
		if err != nil {
			return err
		}
		// The role may be at its cardinality bound; a denial costs the
		// same cascade, and is what the oracle expects for this user.
		actErr := ip.on.AddActiveRole(user, sid, role)
		t2 := time.Now()
		if actErr == nil {
			if err := ip.on.DropActiveRole(user, sid, role); err != nil {
				return err
			}
			drop = append(drop, time.Since(t2))
		}
		if err := ip.on.DeleteSession(sid); err != nil {
			return err
		}
		create = append(create, t1.Sub(t0))
		activate = append(activate, t2.Sub(t1))
	}
	ls.setTime("facade.create_session_us", medianDuration(create), len(create))
	ls.setTime("facade.activate_us", medianDuration(activate), len(activate))
	if len(drop) == 0 {
		drop = activate // every activation was denied: report the denied cascade
	}
	ls.setTime("facade.drop_us", medianDuration(drop), len(drop))

	st := ip.st.eng.Store()
	create, activate = nil, nil
	deadline = time.Now().Add(2 * budget)
	for len(create) < 8 || time.Now().Before(deadline) {
		t0 := time.Now()
		sid, err := st.CreateSession(rbac.UserID(s.user))
		t1 := time.Now()
		if err != nil {
			return err
		}
		_ = st.AddActiveRole(rbac.UserID(s.user), sid, rbac.RoleID(s.role)) // a cardinality denial is timed like an allow
		t2 := time.Now()
		if err := st.DeleteSession(sid); err != nil {
			return err
		}
		create = append(create, t1.Sub(t0))
		activate = append(activate, t2.Sub(t1))
	}
	ls.setTime("rbac.create_session_us", medianDuration(create), len(create))
	ls.setTime("rbac.add_active_role_us", medianDuration(activate), len(activate))
	return nil
}

// variantOf returns the policy a reload measurement alternates with
// the plan's own: reload_fleet's second variant, or the same edit made
// on the spot.
func variantOf(p *plan) (string, *policy.Spec, error) {
	if p.variant != "" {
		spec, err := policy.ParseString(p.variant)
		return p.variant, spec, err
	}
	v := withDayDoctor(p.spec, "08:00:00", "20:00:00", 3)
	if issues := policy.Check(v); policy.HasErrors(issues) {
		return "", nil, fmt.Errorf("plan: reload variant inconsistent: %v", issues)
	}
	return policy.Format(v), v, nil
}

// reloadLayers times regeneration and snapshot distribution in process.
func (ip *inProcess) reloadLayers(ls layerSet, outDir string) error {
	p, budget := ip.p, ip.budget
	variant, variantSpec, err := variantOf(p)
	if err != nil {
		return err
	}
	sources := [2]string{variant, p.source}
	specs := [2]*policy.Spec{variantSpec, p.spec}

	var apply []time.Duration
	for i := 0; i < 6; i++ {
		t0 := time.Now()
		if _, err := ip.on.ApplyPolicy(sources[i%2]); err != nil {
			return err
		}
		apply = append(apply, time.Since(t0))
	}
	ls.setTime("facade.apply_policy_ms", medianDuration(apply), len(apply))

	apply = nil
	touched := 0
	for i := 0; i < 6; i++ {
		t0 := time.Now()
		rep, err := ip.st.gen.Apply(specs[i%2])
		if err != nil {
			return err
		}
		apply = append(apply, time.Since(t0))
		touched = rep.Touched()
	}
	ls.setTime("rulegen.apply_ms", medianDuration(apply), len(apply))
	ls.setCount("rulegen.rules_touched_per_reload", float64(touched), 1)

	var data []byte
	d, n := timeCalls(budget, 1, func() { _, data, err = ip.on.ExportSyncSnapshot() })
	if err != nil {
		return err
	}
	ls.setTime("facade.export_snapshot_ms", d, n)
	ls.setCount("facade.snapshot_bytes", float64(len(data)), 1)
	d, n = timeCalls(budget, 1, func() { err = ip.off.InstallSyncSnapshot(data) })
	if err != nil {
		return err
	}
	ls.setTime("facade.install_snapshot_ms", d, n)

	snap := ip.st.eng.Store().Snapshot()
	d, n = timeCalls(budget, 1, func() { data, err = store.EncodeSnapshot(p.source, snap) })
	if err != nil {
		return err
	}
	ls.setTime("store.encode_snapshot_ms", d, n)
	d, n = timeCalls(budget, 1, func() { _, err = store.DecodeSnapshot(data) })
	if err != nil {
		return err
	}
	ls.setTime("store.decode_snapshot_ms", d, n)

	audit, err := store.OpenAudit(filepath.Join(outDir, "audit-probe.log"))
	if err != nil {
		return err
	}
	rec := store.AuditRecord{At: time.Now(), Kind: "decision", Rule: "CA1", Event: rulegen.EvCheckAccess, User: "u0000", Allowed: true}
	d, n = timeCalls(budget, 1000, func() {
		for i := 0; i < 1000; i++ {
			_, err = audit.Append(rec)
		}
	})
	if cerr := audit.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	ls.setTime("store.audit_append_ns", d, n)

	// The hub keeps one encoded snapshot per epoch, so each timed call
	// follows an untimed session create and delete that move the epoch on;
	// a fresh replica name makes the call a transfer, not an ack.
	hub := replicate.NewHub(ip.on, nil)
	s := p.probes[0]
	var syncs []time.Duration
	for deadline := time.Now().Add(budget); len(syncs) < 3 || time.Now().Before(deadline); {
		sid, err := ip.on.CreateSession(activerbac.UserID(s.user))
		if err == nil {
			err = ip.on.DeleteSession(sid)
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := hub.SyncSnapshot(fmt.Sprintf("bench-%d", len(syncs)), 0); err != nil {
			return err
		}
		syncs = append(syncs, time.Since(t0))
	}
	d, n = medianDuration(syncs), len(syncs)
	ls.setTime("replicate.hub_sync_ms", d, n)
	return nil
}

// eventLayers times the event detector and the rule pool on their own:
// a synchronous raise with no subscriber, with one no-op subscriber,
// and with one trivially true rule.
func eventLayers(ls layerSet, budget time.Duration) error {
	const batch = 1000
	raise := func(det *event.Detector) func() {
		params := event.Params{"user": "u"}
		return func() {
			for i := 0; i < batch; i++ {
				_ = det.RaiseSync("probe", params) // "probe" is defined below; a raise cannot fail
			}
		}
	}
	empty := event.New(clock.NewReal())
	if err := empty.DefinePrimitive("probe"); err != nil {
		return err
	}
	d, n := timeCalls(budget, batch, raise(empty))
	ls.setTime("event.raise_sync_empty_ns", d, n)

	one := event.New(clock.NewReal())
	if err := one.DefinePrimitive("probe"); err != nil {
		return err
	}
	if _, err := one.Subscribe("probe", func(*event.Occurrence) {}); err != nil {
		return err
	}
	d, n = timeCalls(budget, batch, raise(one))
	ls.setTime("event.raise_sync_one_sub_ns", d, n)

	ruled := event.New(clock.NewReal())
	if err := ruled.DefinePrimitive("probe"); err != nil {
		return err
	}
	pool := core.NewPool(ruled)
	if err := pool.Add(core.Rule{Name: "probe", On: "probe",
		Then: []core.Action{{Desc: "nothing", Run: func(*event.Occurrence) error { return nil }}}}); err != nil {
		return err
	}
	d, n = timeCalls(budget, batch, raise(ruled))
	// The rule's own cost: the raise with the rule, minus the raise with
	// a subscriber that does nothing.
	ls.setDerived("core.rule_fire_ns", float64(d)-ls.ns("event.raise_sync_one_sub_ns"), n)
	return nil
}

// nullBackend answers every check with allow: what is left is the wire.
type nullBackend struct{}

func (nullBackend) Check(string, string, string) bool { return true }
func (nullBackend) PolicyEpoch() uint64               { return 1 }
func (nullBackend) CheckBatch(reqs []wire.CheckRequest, vs []bool) []bool {
	for range reqs {
		vs = append(vs, true)
	}
	return vs
}

// wireLayers times the codec alone and the round trip against a server
// inside this process that decides nothing.
func wireLayers(ls layerSet, p *plan, seed int64, budget time.Duration) error {
	rng := rand.New(rand.NewSource(seed))
	frame := make([]tuple, batchTuples)
	p.fillBatch(rng, frame)
	reqs := make([]wire.CheckRequest, batchTuples)
	for i, t := range frame {
		reqs[i] = wire.CheckRequest{Session: string(t.s.osid), Operation: t.perm.Operation, Object: t.perm.Object}
	}
	one := reqs[0]
	buf := make([]byte, 0, 32<<10)
	const batch = 1000
	d, n := timeCalls(budget, batch, func() {
		for i := 0; i < batch; i++ {
			buf = wire.AppendCheck(buf[:0], one.Session, one.Operation, one.Object)
		}
	})
	ls.setTime("wire.encode_check_ns", d, n)
	var derr error
	d, n = timeCalls(budget, batch, func() {
		for i := 0; i < batch; i++ {
			_, _, _, derr = wire.ConsumeCheck(buf)
		}
	})
	if derr != nil {
		return derr
	}
	ls.setTime("wire.decode_check_ns", d, n)
	d, n = timeCalls(budget, batchTuples, func() { buf = wire.AppendCheckBatch(buf[:0], reqs) })
	ls.setTime("wire.encode_batch_ns_per_tuple", d, n)
	into := make([]wire.CheckRequest, 0, batchTuples)
	d, n = timeCalls(budget, batchTuples, func() { into, derr = wire.ConsumeCheckBatch(buf, into[:0]) })
	if derr != nil {
		return derr
	}
	ls.setTime("wire.decode_batch_ns_per_tuple", d, n)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := wire.NewServer(nullBackend{}, nil)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	cl, err := wire.Dial(ln.Addr().String(), &wire.ClientOptions{Conns: generatorConns()})
	if err != nil {
		return err
	}
	defer cl.Close()
	var cerr error
	d, n = timeCalls(4*budget, 1, func() { _, cerr = cl.Check(one.Session, one.Operation, one.Object) })
	if cerr != nil {
		return cerr
	}
	ls.setTime("wire.rtt_null_us", d, n)
	d, n = timeCalls(4*budget, 1, func() { _, cerr = cl.CheckMany(reqs) })
	if cerr != nil {
		return cerr
	}
	ls.setTime("wire.rtt_null_batch_us", d, n)
	loop := closedLoop(closedCallers, 5*budget, func(int) (int64, int64, error) {
		_, err := cl.Check(one.Session, one.Operation, one.Object)
		return 1, 0, err
	})
	if loop.failed > 0 {
		return fmt.Errorf("null wire server: %d of %d checks failed", loop.failed, loop.attempted)
	}
	ls.setCount("wire.null_checks_per_s", float64(loop.decided)/loop.elapsed.Seconds(), int(loop.decided))
	return nil
}
