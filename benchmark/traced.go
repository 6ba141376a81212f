package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"activerbac"
	"activerbac/client"
	"activerbac/internal/rbac"
	"activerbac/internal/rulegen"
	"activerbac/internal/sentinel"
)

// Shares of --seconds the traced run gives its remote passes; the
// in-process measurements take what they need on top (a few seconds).
const (
	tracedLoadShare   = 0.3  // the workload itself, between two scrapes
	tracedCallerShare = 0.15 // one closed-loop caller, once untraced and once traced
	// replayLimit bounds the requests replayed in process with spans.
	replayLimit = 2000
	// residualWarn is where an unexplained share of the remote latency
	// deserves a warning: it is the next thing to go and find.
	residualWarn = 0.15
)

// runTraced is the second pass: per-layer metrics. It sets the
// workload up once, runs it shortened between two scrapes of the
// children's own counters, repeats it at one closed-loop caller with
// and without span recording, times single-caller requests of each
// remote kind, and then times every layer below the wire in process,
// replaying the traced requests with spans. rbacd itself is untouched:
// every span is around a call the benchmark makes.
func (r *runner) runTraced(def workloadDef, seconds time.Duration) (*result, error) {
	res := newResult(def, r.seed, true)
	r.guard = newHostGuard(r.outDir, r.sc.guardBudget)
	defer r.guard.save()
	ls := layerSet{}
	p, err := def.plan(r.sc, r.seed)
	if err != nil {
		return nil, err
	}
	dep, err := r.setUp(p, def.fleet)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	res.count(dep.tally)
	ls.setTime("rbacd.start_ms", dep.leader.readyIn, 1)
	var rss float64
	for _, c := range dep.children() {
		u, err := c.usage()
		if err != nil {
			return nil, err
		}
		rss = math.Max(rss, u.rssMB)
	}
	ls.setCount("proc.rss_after_setup_mb", rss, 1)

	w, err := def.open(r, p, dep)
	if err != nil {
		return nil, err
	}
	defer w.close()

	// Pass 1: the workload as the untraced run drives it, shortened.
	before, err := scrapeAll(dep)
	if err != nil {
		return nil, err
	}
	m, err := r.load(w, dep, time.Duration(float64(seconds)*tracedLoadShare))
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(dep)
	if err != nil {
		return nil, err
	}
	res.count(m.tally)
	serverLayers(ls, dep, before, after, m)
	late := append([]time.Duration(nil), m.late...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	ls.setTime("loadgen.late_p99_us", quantile(late, 0.99), len(late))
	ls.setCount("loadgen.sent_share", m.sentShare(), len(late))

	// Pass 2: one closed-loop caller, untraced and then traced.
	callerFor := time.Duration(float64(seconds) * tracedCallerShare)
	rec := newRecorder()
	var rl *reloader
	if rw, ok := w.(reloading); ok {
		rl = rw.startReloads()
		defer rl.stop()
	}
	plain := closedLoop(1, callerFor, w.request(nil))
	traced := closedLoop(1, callerFor, w.request(rec))
	if rl != nil {
		if err := rl.stop(); err != nil {
			return nil, err
		}
		res.count(rl.tally)
	}
	res.count(plain.tally)
	res.count(traced.tally)
	if len(plain.samples) == 0 || len(traced.samples) == 0 {
		return nil, fmt.Errorf("%s: the single-caller passes completed no request", def.name)
	}
	plainP50 := quantile(sortedLat(plain.samples), 0.5)
	tracedP50 := quantile(sortedLat(traced.samples), 0.5)
	ls.setTime("loadgen.request_1caller_us", plainP50, len(plain.samples))
	ls.setDerived("trace.overhead_share", float64(tracedP50)/float64(plainP50)-1, len(traced.samples))

	// Pass 3: single-caller requests of each remote kind.
	if err := remoteLayers(ls, r, p, dep, m); err != nil {
		return nil, err
	}
	if err := dep.died(); err != nil {
		return nil, err
	}

	// Pass 4: every layer below the wire, in process.
	ip, err := openInProcess(p, ls, r.sc.micro)
	if err != nil {
		return nil, err
	}
	defer ip.close()
	if err := ip.checkLayers(ls, r.seed); err != nil {
		return nil, err
	}
	if err := ip.mutateLayers(ls); err != nil {
		return nil, err
	}
	replayed, err := w.replay(ip, rec)
	if err != nil {
		return nil, err
	}
	res.count(replayed)
	if err := ip.reloadLayers(ls, r.outDir); err != nil {
		return nil, err
	}
	if err := eventLayers(ls, r.sc.micro); err != nil {
		return nil, err
	}
	if err := wireLayers(ls, p, r.seed, r.sc.micro); err != nil {
		return nil, err
	}

	// What the layers explain of what one remote caller sees.
	ls.setDerived("rbacd.wire_check_self_us",
		(ls.ns("rbacd.wire_check_us")-ls.ns("wire.rtt_null_us")-ls.ns("facade.check_hit_ns"))/1e3, ls["rbacd.wire_check_us"].N)
	ls.setDerived("rbacd.http_mutate_self_us",
		(ls.ns("rbacd.http_mutate_us")-(ls.ns("facade.create_session_us")+ls.ns("facade.activate_us")+ls.ns("facade.drop_us"))/3)/1e3, ls["rbacd.http_mutate_us"].N)
	layers := rec.layers()
	explained := explainedBy(def.name, ls, rec, layers)
	residual := 1 - explained/float64(layers["loadgen.request"].total)
	ls.setDerived("trace.residual_share", residual, layers["loadgen.request"].n)
	if residual > residualWarn {
		fmt.Fprintf(os.Stderr, "benchmark: warning: %s: the layers leave %.0f%% of the single-caller latency unexplained\n", def.name, residual*100)
	}
	for _, name := range sortedKeys(layers) {
		lt := layers[name]
		res.Info["span."+name+".total_us"] = metric{Value: us(lt.total), Unit: "us", N: lt.n}
		res.Info["span."+name+".self_us"] = metric{Value: us(lt.own), Unit: "us", N: lt.n, Derived: true}
	}
	if err := rec.write(filepath.Join(r.outDir, "trace-"+def.name+".json")); err != nil {
		return nil, err
	}

	r.guard.report(res)
	for name, v := range ls {
		res.Metrics[name] = v
	}
	for _, name := range perLayerNames {
		if _, ok := res.Metrics[name]; !ok {
			res.gate(false, "per-layer metric %s was not measured", name)
		}
	}
	res.finish()
	return res, nil
}

// explainedBy adds up what the measured layers account for in one
// remote request of the workload: the wire round trips it makes,
// priced against a server that decides nothing, and the facade's time
// for the same calls in process. The rest is rbacd's adapters, the
// second process and the scheduler.
func explainedBy(workload string, ls layerSet, rec *recorder, layers map[string]layerTime) float64 {
	requests := float64(layers["loadgen.request"].n)
	var facade float64
	for name, lt := range layers {
		if strings.HasPrefix(name, "activerbac.System.") {
			// Replayed spans cover the first replayLimit requests only;
			// price each call at its median and count calls per request
			// from the remote spans it answers.
			facade += float64(lt.total) * float64(lt.n) / math.Min(requests, replayLimit)
		}
	}
	switch workload {
	case "cold_batch":
		return facade + ls.ns("wire.rtt_null_batch_us")
	case "churn_mixed":
		// Only a cache miss crosses the wire; a miss is a Cache.Check
		// that took longer than half a null round trip.
		misses := float64(rec.longer("client.Cache.Check", time.Duration(ls.ns("wire.rtt_null_us")/2)))
		return facade + misses/requests*ls.ns("wire.rtt_null_us")
	default:
		return facade + ls.ns("wire.rtt_null_us")
	}
}

// scrapeAll scrapes every child of the deployment.
func scrapeAll(dep *deployment) (map[*child]counters, error) {
	out := map[*child]counters{}
	for _, c := range dep.children() {
		s, err := c.scrape()
		if err != nil {
			return nil, err
		}
		u, err := c.usage()
		if err != nil {
			return nil, err
		}
		s["proc_cpu_user_s"], s["proc_cpu_sys_s"] = u.userS, u.sysS
		out[c] = s
	}
	return out, nil
}

// serverLayers turns the children's own counters over pass 1 into the
// "srv" metrics: what the server says about its layers.
func serverLayers(ls layerSet, dep *deployment, before, after map[*child]counters, m *measured) {
	reads := after[dep.reads()].delta(before[dep.reads()])
	all := counters{}
	for c, s := range after {
		for k, v := range s.delta(before[c]) {
			all[k] += v
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses, bypass := reads.sum("activerbac_fastpath_hits_total", ""), reads.sum("activerbac_fastpath_misses_total", ""), reads.sum("activerbac_fastpath_bypass_total", "")
	asked := hits + misses + bypass
	ls.setDerived("sentinel.fastpath_hit_share", ratio(hits, asked), int(asked))
	ls.setDerived("sentinel.fastpath_bypass_share", ratio(bypass, asked), int(asked))
	ls.setCount("sentinel.fastpath_invalidations", all.sum("activerbac_fastpath_invalidations_total", ""), 1)
	stage := func(name string) (float64, int) {
		n := reads.sum("activerbac_stage_seconds_count", `stage="`+name+`"`)
		return ratio(reads.sum("activerbac_stage_seconds_sum", `stage="`+name+`"`), n), int(n)
	}
	probe, n := stage("fastpath_probe")
	ls.setDerived("sentinel.stage_probe_ns", probe*1e9, n)
	cascade, n := stage("cascade")
	ls.setDerived("sentinel.stage_cascade_us", cascade*1e6, n)
	batches := reads.sum("activerbac_batch_size_count", "")
	ls.setDerived("sentinel.batch_groups_per_batch", ratio(reads.sum("activerbac_batch_groups_total", ""), batches), int(batches))
	waits := all.sum("activerbac_lane_wait_seconds_count", "")
	ls.setDerived("event.lane_wait_us", ratio(all.sum("activerbac_lane_wait_seconds_sum", ""), waits)*1e6, int(waits))

	// Per check: the server's own count of checkAccess decisions, which
	// for batches counts tuples the cascade decided; the generator's
	// count of verdicts stands in when the server counted none.
	checks := reads.sum("activerbac_decisions_total", `event="req.checkAccess"`)
	if checks == 0 {
		checks = float64(m.decided)
	}
	ls.setDerived("event.raised_per_check", ratio(reads.sum("activerbac_events_raised_total", ""), checks), int(checks))
	ls.setDerived("core.rules_fired_per_check", ratio(reads.sum("activerbac_rule_fired_total", ""), checks), int(checks))
	ls.setDerived("core.rule_eval_us_per_check", ratio(reads.sum("activerbac_rule_eval_seconds_total", ""), checks)*1e6, int(checks))

	ls.setCount("wire.requests", all.sum("activerbac_wire_requests_total", ""), 1)
	ls.setCount("wire.errors", all.sum("activerbac_wire_errors_total", ""), 1)
	ls.setCount("wire.epoch_pushes", all.sum("activerbac_epoch_pushes_total", ""), 1)
	ls.setCount("obs.traces_sampled", all.sum("activerbac_traces_total", ""), 1)

	leader := after[dep.leader].delta(before[dep.leader])
	syncs := leader.sum("activerbac_sync_total", "")
	ls.setDerived("replicate.sync_bytes_per_epoch", ratio(leader.sum("activerbac_sync_bytes_total", ""), syncs), int(syncs))
	ls.setDerived("replicate.syncs_per_reload", ratio(syncs, float64(len(m.reloads))), len(m.reloads))
	ls.setCount("replicate.lag_max_epochs", float64(m.lagMax), len(m.reloads))
	ls.setCount("replicate.stale_policy_installs", float64(m.staleInstalls), len(m.reloads))
	ls.setTime("rbacd.reload_p50_ms", quantile(sortedLat(m.reloads), 0.5), len(m.reloads))
	ls.setTime("replicate.converge_p50_ms", quantile(sortedLat(m.converges), 0.5), len(m.converges))

	ls.setCount("proc.cpu_user_s", all["proc_cpu_user_s"], 1)
	ls.setCount("proc.cpu_sys_s", all["proc_cpu_sys_s"], 1)
	if m.cache != nil {
		ls.setDerived("client.hit_share", ratio(float64(m.cache.Hits), float64(m.cache.Hits+m.cache.Misses)), int(m.cache.Hits+m.cache.Misses))
		ls.setCount("client.invalidations", float64(m.cache.Invalidations), 1)
	}
}

// remoteLayers times one caller's requests of each remote kind against
// the live deployment: the client cache's hit and miss, a per-tuple
// wire CHECK, an HTTP check, HTTP session mutations.
func remoteLayers(ls layerSet, r *runner, p *plan, dep *deployment, m *measured) error {
	budget := r.sc.micro
	rng := rand.New(rand.NewSource(r.seed))
	tuples := p.universe(rng, 512)

	cache, err := client.New(dep.reads().wireAddr, nil)
	if err != nil {
		return err
	}
	defer cache.Close()
	if !cache.Subscribed() {
		return fmt.Errorf("client cache could not subscribe to epoch pushes")
	}
	var miss, direct []time.Duration
	for _, t := range tuples {
		t0 := time.Now()
		ok, err := cache.Check(t.s.sid, t.perm.Operation, t.perm.Object)
		t1 := time.Now()
		if err != nil || !ok {
			return fmt.Errorf("client cache probe: %s %v: allowed=%v err=%v", t.s.sid, t.perm, ok, err)
		}
		if _, _, err := cache.Client().CheckCacheable(t.s.sid, t.perm.Operation, t.perm.Object); err != nil {
			return err
		}
		miss = append(miss, t1.Sub(t0))
		direct = append(direct, time.Since(t1))
	}
	ls.setTime("rbacd.wire_check_us", medianDuration(direct), len(direct))
	// The cache's own work on a miss: the miss minus the same round trip
	// made directly.
	ls.setDerived("client.check_miss_self_us", us(medianDuration(miss)-medianDuration(direct)), len(miss))
	d, n := timeCalls(budget, len(tuples), func() {
		for _, t := range tuples {
			_, _ = cache.Check(t.s.sid, t.perm.Operation, t.perm.Object) // hits: no round trip to fail
		}
	})
	ls.setTime("client.check_hit_ns", d, n)
	if m.cache == nil {
		// The workload does not use the client cache; report the probe's.
		st := cache.Stats()
		ls.setDerived("client.hit_share", float64(st.Hits)/float64(st.Hits+st.Misses), int(st.Hits+st.Misses))
		ls.setCount("client.invalidations", float64(st.Invalidations), 1)
	}

	reads := dep.reads()
	var herr error
	i := 0
	d, n = timeCalls(4*budget, 1, func() {
		t := tuples[i%len(tuples)]
		i++
		var out struct{ Allowed bool }
		_, err := reads.call("GET", "/v1/check?session="+url.QueryEscape(t.s.sid)+"&operation="+url.QueryEscape(t.perm.Operation)+"&object="+url.QueryEscape(t.perm.Object), "", &out)
		if err == nil && !out.Allowed {
			err = fmt.Errorf("HTTP check of %s %v denied, oracle allows", t.s.sid, t.perm)
		}
		if err != nil {
			herr = err
		}
	})
	if herr != nil {
		return herr
	}
	ls.setTime("rbacd.http_check_us", d, n)

	// One extra session's lifecycle on the leader, mutation by mutation.
	s := p.probes[len(p.probes)-1]
	tgt := &remoteTarget{leader: dep.leader, start: time.Now()}
	deadline := time.Now().Add(4 * budget)
	for len(tgt.writes) < 16 || time.Now().Before(deadline) {
		sid, err := tgt.createSession(s.user)
		if err != nil {
			return err
		}
		denied, err := tgt.activate(s.user, sid, s.role)
		if err != nil {
			return err
		}
		if !denied {
			if _, err := tgt.deactivate(s.user, sid, s.role); err != nil {
				return err
			}
		}
		if err := tgt.deleteSession(sid); err != nil {
			return err
		}
		// The delete has no counterpart among the timed facade calls, so
		// it is left out of the pooled mutation latency.
		tgt.writes = tgt.writes[:len(tgt.writes)-1]
	}
	ls.setTime("rbacd.http_mutate_us", quantile(sortedLat(tgt.writes), 0.5), len(tgt.writes))

	// Reloads, where the workload has not made its own.
	if len(m.reloads) == 0 {
		variant, _, err := variantOf(p)
		if err != nil {
			return err
		}
		var reloads []time.Duration
		for i := 0; i < 4; i++ {
			body := variant
			if i%2 == 1 {
				body = p.source
			}
			t0 := time.Now()
			if _, err := dep.leader.call("POST", "/v1/policy", body, nil); err != nil {
				return err
			}
			reloads = append(reloads, time.Since(t0))
		}
		ls.setTime("rbacd.reload_p50_ms", medianDuration(reloads), len(reloads))
	}
	return nil
}

// localTarget drives a churn lifecycle against a System in process,
// with a span around every call. Each span's parent is the remote span
// of the same request that made the same call, so that the remote
// span's self time is what the facade does not explain.
type localTarget struct {
	sys *activerbac.System
	rec *recorder
	req int64
	// remote queues, per span name, the ids of the request's remote
	// spans in the order they were made.
	remote map[string][]int
}

// remoteSpanOf names the remote span each facade call answers.
var remoteSpanOf = map[string]string{
	"CreateSession": "rbacd.POST /v1/sessions", "DeleteSession": "rbacd.DELETE /v1/sessions",
	"AddActiveRole": "rbacd.POST /v1/activate", "DropActiveRole": "rbacd.POST /v1/deactivate",
	"AssignUser": "rbacd.POST /v1/assign", "DeassignUser": "rbacd.POST /v1/deassign",
	"CheckAccessTuple": "client.Cache.Check",
}

func (t *localTarget) begin(call string) int {
	parent := 0
	if q := t.remote[remoteSpanOf[call]]; len(q) > 0 {
		parent, t.remote[remoteSpanOf[call]] = q[0], q[1:]
	}
	return t.rec.begin("activerbac.System."+call, parent, t.req)
}

// mutate runs one mutator in a span; an error from the engine is a
// denial, as a 403 is from the server.
func (t *localTarget) mutate(call string, f func() error) (bool, error) {
	id := t.begin(call)
	err := f()
	t.rec.end(id)
	return err != nil, nil
}

func (t *localTarget) createSession(user string) (string, error) {
	id := t.begin("CreateSession")
	sid, err := t.sys.CreateSession(activerbac.UserID(user))
	t.rec.end(id)
	return string(sid), err
}

func (t *localTarget) deleteSession(sid string) error {
	id := t.begin("DeleteSession")
	err := t.sys.DeleteSession(activerbac.SessionID(sid))
	t.rec.end(id)
	return err
}

func (t *localTarget) activate(user, sid, role string) (bool, error) {
	return t.mutate("AddActiveRole", func() error {
		return t.sys.AddActiveRole(activerbac.UserID(user), activerbac.SessionID(sid), activerbac.RoleID(role))
	})
}

func (t *localTarget) deactivate(user, sid, role string) (bool, error) {
	return t.mutate("DropActiveRole", func() error {
		return t.sys.DropActiveRole(activerbac.UserID(user), activerbac.SessionID(sid), activerbac.RoleID(role))
	})
}

func (t *localTarget) assign(user, role string) (bool, error) {
	return t.mutate("AssignUser", func() error { return t.sys.AssignUser(activerbac.UserID(user), activerbac.RoleID(role)) })
}

func (t *localTarget) deassign(user, role string) (bool, error) {
	return t.mutate("DeassignUser", func() error { return t.sys.DeassignUser(activerbac.UserID(user), activerbac.RoleID(role)) })
}

func (t *localTarget) check(sid, operation, object string) (bool, error) {
	id := t.begin("CheckAccessTuple")
	ok := t.sys.CheckAccessTuple(sid, operation, object)
	t.rec.end(id)
	return ok, nil
}

// byRequest groups the ids of the spans recorded so far by request and
// then by name, in recording order.
func (r *recorder) byRequest() map[int64]map[string][]int {
	out := map[int64]map[string][]int{}
	for _, s := range r.spans {
		if out[s.Request] == nil {
			out[s.Request] = map[string][]int{}
		}
		out[s.Request][s.Name] = append(out[s.Request][s.Name], s.ID)
	}
	return out
}

// longer counts the finished spans named name that took more than d.
func (r *recorder) longer(name string, d time.Duration) int {
	n := 0
	for _, s := range r.spans {
		if s.Name == name && s.End-s.Start > int64(d) {
			n++
		}
	}
	return n
}

// parents maps each request of the traced pass to the id of its span
// named name: the span an in-process replay of that request explains.
func (r *recorder) parents(name string) map[int64]int {
	out := map[int64]int{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Request] = s.ID
		}
	}
	return out
}

// replay of the per-tuple workloads: the traced requests again, through
// the facade, the engine below it and the store below that, each on the
// tuple the remote request carried.
func (w *perTuple) replay(ip *inProcess, rec *recorder) (tally, error) {
	var t tally
	parents := rec.parents("wire.Client.Check")
	st := ip.st.eng.Store()
	for n := int64(1); n <= int64(len(parents)) && n <= replayLimit; n++ {
		tu := w.stream[n%int64(len(w.stream))]
		a := rec.begin("activerbac.System.CheckAccessTuple", parents[n], n)
		got := ip.on.CheckAccessTuple(ip.onSID[tu.s], tu.perm.Operation, tu.perm.Object)
		rec.end(a)
		b := rec.begin("sentinel.Engine.DecideCheck", a, n)
		dec, err := ip.st.eng.DecideCheck(rulegen.EvCheckAccess, tu.s.user, ip.stSID[tu.s], tu.perm.Operation, tu.perm.Object)
		rec.end(b)
		c := rec.begin("rbac.Store.CheckAccess", b, n)
		direct := st.CheckAccess(rbac.SessionID(ip.stSID[tu.s]), tu.perm)
		rec.end(c)
		t.attempted++
		t.decided += 3
		t.wrong += b2i(got != tu.want) + b2i(err != nil || dec.Allowed() != tu.want) + b2i(direct != tu.want)
	}
	return t, nil
}

func (w *reloadFleet) replay(ip *inProcess, rec *recorder) (tally, error) {
	return w.perTuple.replay(ip, rec)
}

// replay of cold_batch: the traced frames regenerated from the same
// stream, through the facade's batch entry, the engine's, and the
// store tuple by tuple.
func (w *coldBatch) replay(ip *inProcess, rec *recorder) (tally, error) {
	var t tally
	parents := rec.parents("wire.Client.CheckMany")
	b := w.batcher(traceStream)
	st := ip.st.eng.Store()
	checks := make([]activerbac.BatchCheck, batchTuples)
	tuples := make([]sentinel.CheckTuple, batchTuples)
	var verdicts []bool
	var vds []sentinel.Verdict
	for n := int64(1); n <= int64(len(parents)) && n <= replayLimit; n++ {
		b.next()
		for i, tu := range b.frame {
			checks[i] = activerbac.BatchCheck{Session: ip.onSID[tu.s], Operation: tu.perm.Operation, Object: tu.perm.Object}
			tuples[i] = sentinel.CheckTuple{User: tu.s.user, Session: ip.stSID[tu.s], Operation: tu.perm.Operation, Object: tu.perm.Object}
		}
		a := rec.begin("activerbac.System.CheckAccessBatch", parents[n], n)
		verdicts = ip.on.CheckAccessBatch(checks, verdicts)
		rec.end(a)
		bb := rec.begin("sentinel.Engine.DecideCheckBatch", a, n)
		var err error
		vds, err = ip.st.eng.DecideCheckBatch(rulegen.EvCheckAccess, tuples, vds[:0])
		rec.end(bb)
		if err != nil {
			return t, err
		}
		c := rec.begin("rbac.Store.CheckAccess", bb, n)
		var direct int64
		for _, tu := range b.frame {
			direct += b2i(st.CheckAccess(rbac.SessionID(ip.stSID[tu.s]), tu.perm) != tu.want)
		}
		rec.end(c)
		t.attempted++
		t.decided += 3 * batchTuples
		t.wrong += direct
		for i, tu := range b.frame {
			t.wrong += b2i(verdicts[i] != tu.want) + b2i(vds[i].Allowed != tu.want)
		}
	}
	return t, nil
}

// replay of churn_mixed: the traced caller's lifecycles again, same
// stream, against the System in process.
func (w *churn) replay(ip *inProcess, rec *recorder) (tally, error) {
	var t tally
	remote := rec.byRequest()
	rng := rand.New(rand.NewSource(w.seed*1000 + traceStream))
	tgt := &localTarget{sys: ip.on, rec: rec}
	for n := int64(1); n <= int64(len(remote)) && n <= replayLimit; n++ {
		tgt.req, tgt.remote = n, remote[n]
		lr, err := w.p.lifecycle(rng, w.users[0], n, tgt)
		if err != nil {
			return t, err
		}
		t.add(lr.tally)
	}
	return t, nil
}
