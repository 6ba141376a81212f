package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"activerbac/client"
	"activerbac/internal/rbac"
	"activerbac/internal/wire"
)

// scale sizes a run. reference is what BENCHMARK.json measures; the
// harness tests substitute a tiny one.
type scale struct {
	small, large, fleet                                 enterprise
	hotSessions, coldSessions, churnIdle, fleetSessions int
	rateHot, rateReload                                 float64
	warmup                                              time.Duration
	// micro is the time one in-process micro-measurement loops.
	micro time.Duration
	// guardBudget is the time a run may lose to a disturbed host.
	guardBudget time.Duration
	// cacheGates turns on the verdict-cache validity gates, which only
	// mean something at the reference sizes.
	cacheGates bool
}

var reference = scale{
	small: e32, large: e32wide, fleet: e16,
	// hot_wire: one session per user.
	hotSessions: 512,
	// cold_batch: 12 per user, 12 × fpSessionSlots. Its allowed universe
	// (sessions × effective permissions, ~490 000 tuples) is 1.9 × the
	// verdict cache and several times what a run gets to ask.
	coldSessions: 3072,
	// churn_mixed: idle sessions every copy-on-write publication drags
	// along while the callers create and delete theirs.
	churnIdle: 512,
	// reload_fleet: two sessions per user, all replicated.
	fleetSessions: 512,
	rateHot:       rateHot, rateReload: rateReload,
	warmup: warmup, micro: microBudget, guardBudget: guardBudget, cacheGates: true,
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name, why string
	fleet     bool
	plan      func(sc scale, seed int64) (*plan, error)
	open      func(r *runner, p *plan, dep *deployment) (liveWorkload, error)
}

// liveWorkload is one workload bound to a live deployment.
type liveWorkload interface {
	// slice runs the workload's loops for d: one of the runSlices
	// equal slices a run measures, or its warm-up.
	slice(d time.Duration) (*measured, error)
	// request returns the workload's request as one closed-loop caller
	// issues it, recording spans into rec when rec is not nil.
	request(rec *recorder) func(caller int) (decided, wrong int64, err error)
	// replay repeats the requests the traced pass recorded against the
	// in-process systems, one span per layer, and checks their verdicts.
	replay(ip *inProcess, rec *recorder) (tally, error)
	close()
}

var workloads = []workloadDef{
	{
		name: "hot_wire",
		why:  "per-tuple CHECK frames over a Zipf hot set that fits the verdict cache: wire, the rbacd adapter and the fast-path probe do the work",
		plan: func(sc scale, seed int64) (*plan, error) { return newPlan(sc.small, sc.hotSessions, seed) },
		open: openHotWire,
	},
	{
		name: "cold_batch",
		why:  "256-tuple single-session CHECK_BATCH frames over a universe larger than the verdict cache: batch, event, rule evaluation and cache insert/evict dominate",
		plan: func(sc scale, seed int64) (*plan, error) { return newPlan(sc.large, sc.coldSessions, seed) },
		open: openColdBatch,
	},
	{
		name: "churn_mixed",
		why:  "session lifecycles over HTTP beside client-cached reads the writes keep invalidating: a read-side gain that taxes mutations, or the reverse, shows here",
		plan: func(sc scale, seed int64) (*plan, error) { return newPlan(sc.small, sc.churnIdle, seed) },
		open: openChurn,
	},
	{
		name:  "reload_fleet",
		fleet: true,
		why:   "per-tuple CHECK against a replica while the leader hot-reloads two policy variants: regeneration, snapshot transfer, install and the read latency each install costs",
		plan: func(sc scale, seed int64) (*plan, error) {
			p, err := newPlan(sc.fleet, sc.fleetSessions, seed)
			if err != nil {
				return nil, err
			}
			return p, p.addReloadVariant()
		},
		open: openReloadFleet,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runner owns the children of one benchmark process.
type runner struct {
	bin, outDir string
	sc          scale
	seed        int64
	guard       *hostGuard

	mu       sync.Mutex
	children []*child
}

func (r *runner) spawn(name string, extra ...string) (*child, error) {
	c, err := spawn(r.bin, r.outDir, name, extra...)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.children = append(r.children, c)
	r.mu.Unlock()
	return c, nil
}

// killAll ends every child this process started; it is safe to call
// more than once and runs on every exit path.
func (r *runner) killAll() {
	r.mu.Lock()
	cs := r.children
	r.children = nil
	r.mu.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// deployment is a set-up server (or leader and replica) with the
// plan's sessions loaded.
type deployment struct {
	leader, replica *child
	took            time.Duration
	// writes is the HTTP latency of every set-up mutation; set-up is
	// where the read-only workloads write.
	writes []sample
	tally
}

func (d *deployment) children() []*child {
	if d.replica != nil {
		return []*child{d.leader, d.replica}
	}
	return []*child{d.leader}
}

// reads is the child that answers checks.
func (d *deployment) reads() *child {
	if d.replica != nil {
		return d.replica
	}
	return d.leader
}

func (d *deployment) close() {
	for _, c := range d.children() {
		c.kill()
	}
}

// died names a child that exited on its own.
func (d *deployment) died() error {
	for _, c := range d.children() {
		if !c.alive() {
			return fmt.Errorf("%s exited during the run: %s", c.name, c.logTail())
		}
	}
	return nil
}

// cpu is the user+system CPU seconds all children have used so far.
func (d *deployment) cpu() (float64, error) {
	var total float64
	for _, c := range d.children() {
		u, err := c.usage()
		if err != nil {
			return 0, err
		}
		total += u.userS + u.sysS
	}
	return total, nil
}

// setUp starts the deployment and loads the plan's sessions, checking
// every activation against the oracle. The time it takes is setup_s.
func (r *runner) setUp(p *plan, fleet bool) (*deployment, error) {
	start := time.Now()
	policyPath := filepath.Join(r.outDir, "policy.acp")
	if err := os.WriteFile(policyPath, []byte(p.source), 0o644); err != nil {
		return nil, err
	}
	leader, err := r.spawn("leader", "-policy", policyPath)
	if err != nil {
		return nil, err
	}
	d := &deployment{leader: leader}
	timed := func(method, path, body string, out any) (bool, error) {
		t0 := time.Now()
		denied, err := leader.call(method, path, body, out)
		d.attempted++
		if err != nil {
			d.failed++
			return false, err
		}
		d.writes = append(d.writes, sample{at: t0.Sub(start), lat: time.Since(t0)})
		return denied, nil
	}
	for _, s := range p.sessions {
		var created struct{ Session string }
		if _, err := timed("POST", "/v1/sessions", fmt.Sprintf(`{"user":%q}`, s.user), &created); err != nil {
			d.close()
			return nil, err
		}
		s.sid = created.Session
		denied, err := timed("POST", "/v1/activate", fmt.Sprintf(`{"user":%q,"session":%q,"role":%q}`, s.user, s.sid, s.role), nil)
		if err != nil {
			d.close()
			return nil, err
		}
		d.decided++
		if denied == s.wantActive {
			d.wrong++
		}
	}
	if fleet {
		d.replica, err = r.spawn("replica", "-mode", "replica", "-leader-addr", leader.wireAddr, "-replica-name", "replica")
		if err != nil {
			d.close()
			return nil, err
		}
		cl, err := wire.Dial(d.replica.wireAddr, nil)
		if err != nil {
			d.close()
			return nil, err
		}
		_, err = awaitEpoch(d.leader, cl, 30*time.Second)
		cl.Close()
		if err != nil {
			d.close()
			return nil, err
		}
	}
	d.took = time.Since(start)
	return d, nil
}

// leaderEpoch reads the leader's push epoch.
func leaderEpoch(leader *child) (uint64, error) {
	var st struct{ Epoch uint64 }
	_, err := leader.call("GET", "/v1/replication", "", &st)
	return st.Epoch, err
}

// awaitEpoch polls the replica's POLICY_VERSION until it reaches the
// leader's current push epoch, and returns how many epochs behind the
// replica was at the first poll.
func awaitEpoch(leader *child, replica *wire.Client, limit time.Duration) (lag uint64, err error) {
	want, err := leaderEpoch(leader)
	if err != nil {
		return 0, err
	}
	deadline := time.Now().Add(limit)
	for first := true; ; first = false {
		got, err := replica.PolicyVersion()
		if err != nil {
			return 0, err
		}
		if first && got < want {
			lag = want - got
		}
		if got >= want {
			return lag, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("replica at epoch %d, leader at %d after %v", got, want, limit)
		}
		time.Sleep(convergePoll)
	}
}

// measured is what one slice of a workload produced, or, merged, what
// all accepted slices of a run did.
type measured struct {
	tally
	// checks verdicts were decided in closedFor of closed-loop time;
	// checks_per_s is their quotient.
	checks    int64
	closedFor time.Duration
	// latency holds the check requests whose latency is reported, and
	// latencyPhase the length of the phase they span.
	latency      []sample
	latencyPhase time.Duration
	// writes holds the workload's state-changing requests.
	writes []sample
	// cpuS is the children's CPU over the slices, ops the verdicts,
	// mutations and reloads completed in them, elapsed their wall time.
	cpuS    float64
	ops     int64
	elapsed time.Duration
	// Open loop only: how late each request left the generator, and how
	// many of the scheduled requests left at all.
	late      []time.Duration
	scheduled int64
	// What the client cache did (churn_mixed only).
	cache *client.Stats
	// reload_fleet only.
	reloads, converges []sample
	lagMax             uint64
	staleInstalls      int64
}

// merge adds slice m, the index-th accepted one, to the run's total.
// Each slice's samples keep their order in time: slice i's latency
// samples land in window i of the merged phase.
func (total *measured) merge(m *measured, index int) {
	total.tally.add(m.tally)
	total.checks += m.checks
	total.closedFor += m.closedFor
	for _, sm := range m.latency {
		sm.at += time.Duration(index) * m.latencyPhase
		total.latency = append(total.latency, sm)
	}
	total.latencyPhase += m.latencyPhase
	for _, sm := range m.writes {
		sm.at += total.elapsed
		total.writes = append(total.writes, sm)
	}
	total.cpuS += m.cpuS
	total.ops += m.ops
	total.elapsed += m.elapsed
	total.late = append(total.late, m.late...)
	total.scheduled += m.scheduled
	if m.cache != nil {
		if total.cache == nil {
			total.cache = &client.Stats{}
		}
		total.cache.Hits += m.cache.Hits
		total.cache.Misses += m.cache.Misses
		total.cache.Invalidations += m.cache.Invalidations
	}
}

// sentShare is the part of its schedule the open loop actually sent.
func (m *measured) sentShare() float64 {
	if m.scheduled == 0 {
		return 1
	}
	return float64(len(m.late)) / float64(m.scheduled)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------
// Per-tuple CHECK workloads: hot_wire, and reload_fleet on top of it.

type perTuple struct {
	dep    *deployment
	cl     *wire.Client
	stream []tuple
	rate   float64
	// pos is where each closed-loop caller is in the stream, next where
	// the open loop is.
	pos  []int
	next int64
}

func openPerTuple(r *runner, p *plan, dep *deployment, rate float64) (*perTuple, error) {
	cl, err := wire.Dial(dep.reads().wireAddr, &wire.ClientOptions{Conns: generatorConns()})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	w := &perTuple{dep: dep, cl: cl, stream: p.hotStream(rng, 1<<17), rate: rate, pos: make([]int, closedCallers)}
	// Each closed-loop caller walks the stream from its own offset.
	for c := range w.pos {
		w.pos[c] = c * len(w.stream) / closedCallers
	}
	return w, nil
}

func openHotWire(r *runner, p *plan, dep *deployment) (liveWorkload, error) {
	return openPerTuple(r, p, dep, r.sc.rateHot)
}

func (w *perTuple) check(t tuple) (int64, int64, error) {
	ok, err := w.cl.Check(t.s.sid, t.perm.Operation, t.perm.Object)
	if err != nil {
		return 0, 0, err
	}
	return 1, b2i(ok != t.want), nil
}

// slice gives closedShare of d to the closed loop (capacity) and the
// rest to the open loop (latency at the fixed rate). The two alternate
// slice by slice, so both sample the whole run.
func (w *perTuple) slice(d time.Duration) (*measured, error) {
	closedFor := time.Duration(float64(d) * closedShare)
	closed := closedLoop(closedCallers, closedFor, func(c int) (int64, int64, error) {
		t := w.stream[w.pos[c]%len(w.stream)]
		w.pos[c]++
		return w.check(t)
	})
	base := w.next
	open, err := openLoop(w.rate, d-closedFor, openWorkers, func(i int64) (int64, int64, error) {
		return w.check(w.stream[(base+i)%int64(len(w.stream))])
	})
	if err != nil {
		return nil, err
	}
	w.next += open.scheduled
	m := &measured{checks: closed.decided, closedFor: closed.elapsed,
		latency: open.samples, latencyPhase: d - closedFor, late: open.late, scheduled: open.scheduled}
	m.tally.add(closed.tally)
	m.tally.add(open.tally)
	m.ops = m.decided
	return m, nil
}

func (w *perTuple) request(rec *recorder) func(int) (int64, int64, error) {
	var n int64
	return func(int) (int64, int64, error) {
		n++
		root := rec.begin("loadgen.request", 0, n)
		t := w.stream[n%int64(len(w.stream))]
		call := rec.begin("wire.Client.Check", root, n)
		decided, wrong, err := w.check(t)
		rec.end(call)
		rec.end(root)
		return decided, wrong, err
	}
}

func (w *perTuple) close() { w.cl.Close() }

// ---------------------------------------------------------------------
// cold_batch

type coldBatch struct {
	p        *plan
	dep      *deployment
	cl       *wire.Client
	seed     int64
	batchers []*batcher // one per closed-loop caller
}

func openColdBatch(r *runner, p *plan, dep *deployment) (liveWorkload, error) {
	cl, err := wire.Dial(dep.leader.wireAddr, &wire.ClientOptions{Conns: generatorConns()})
	if err != nil {
		return nil, err
	}
	w := &coldBatch{p: p, dep: dep, cl: cl, seed: r.seed}
	for c := 0; c < batchCallers; c++ {
		w.batchers = append(w.batchers, w.batcher(int64(c)))
	}
	return w, nil
}

// batcher makes and sends one caller's frames; callers do not share it.
type batcher struct {
	w     *coldBatch
	rng   *rand.Rand
	frame []tuple
	reqs  []wire.CheckRequest
}

func (w *coldBatch) batcher(stream int64) *batcher {
	return &batcher{w: w, rng: rand.New(rand.NewSource(w.seed*1000 + stream)),
		frame: make([]tuple, batchTuples), reqs: make([]wire.CheckRequest, batchTuples)}
}

func (b *batcher) next() {
	b.w.p.fillBatch(b.rng, b.frame)
	for i, t := range b.frame {
		b.reqs[i] = wire.CheckRequest{Session: t.s.sid, Operation: t.perm.Operation, Object: t.perm.Object}
	}
}

func (b *batcher) send() (int64, int64, error) {
	verdicts, err := b.w.cl.CheckMany(b.reqs)
	if err != nil {
		return 0, 0, err
	}
	var wrong int64
	for i, v := range verdicts {
		wrong += b2i(v != b.frame[i].want)
	}
	return int64(len(verdicts)), wrong, nil
}

func (w *coldBatch) slice(d time.Duration) (*measured, error) {
	loop := closedLoop(batchCallers, d, func(c int) (int64, int64, error) {
		w.batchers[c].next()
		return w.batchers[c].send()
	})
	m := &measured{tally: loop.tally, checks: loop.decided, closedFor: loop.elapsed,
		latency: loop.samples, latencyPhase: d, ops: loop.decided}
	return m, nil
}

// traceStream is the stream the traced pass and its in-process replay
// both draw from; the untraced single-caller pass before it draws from
// plainStream, so that it does not warm the server for the traced one.
const (
	traceStream = 99
	plainStream = 98
)

func streamFor(rec *recorder) int64 {
	if rec == nil {
		return plainStream
	}
	return traceStream
}

func (w *coldBatch) request(rec *recorder) func(int) (int64, int64, error) {
	b := w.batcher(streamFor(rec))
	var n int64
	return func(int) (int64, int64, error) {
		n++
		root := rec.begin("loadgen.request", 0, n)
		b.next()
		call := rec.begin("wire.Client.CheckMany", root, n)
		decided, wrong, err := b.send()
		rec.end(call)
		rec.end(root)
		return decided, wrong, err
	}
}

func (w *coldBatch) close() { w.cl.Close() }

// ---------------------------------------------------------------------
// churn_mixed

// target is what a session lifecycle drives: the server over HTTP plus
// the shared client cache, or a System in process for the traced replay.
type target interface {
	createSession(user string) (sid string, err error)
	deleteSession(sid string) error
	activate(user, sid, role string) (denied bool, err error)
	deactivate(user, sid, role string) (denied bool, err error)
	assign(user, role string) (denied bool, err error)
	deassign(user, role string) (denied bool, err error)
	check(sid, operation, object string) (bool, error)
}

// churnUser is a user a churn caller owns, with the roles around its
// assigned one inside its own department branch.
type churnUser struct {
	name, role string
	neighbour  string // the role next to it in its chain, "" if none
	foreign    string // a role of another branch the user is not authorized for
}

// churnUsers splits the users over the callers by department branch, so
// that no role — and so no cardinality or SoD tally — is touched by two
// callers and every caller's verdicts are deterministic.
func churnUsers(p *plan, callers int) [][]churnUser {
	junior := map[string]string{}
	senior := map[string]string{}
	shared := map[string]bool{} // the bottom role has several seniors
	for _, e := range p.spec.Hierarchy {
		if _, dup := senior[e.Junior]; dup {
			shared[e.Junior] = true
		}
		senior[e.Junior] = e.Senior
	}
	for _, e := range p.spec.Hierarchy {
		if !shared[e.Junior] {
			junior[e.Senior] = e.Junior
		}
	}
	top := func(role string) string {
		for !shared[role] && senior[role] != "" {
			role = senior[role]
		}
		return role
	}
	tops := map[string]bool{}
	for _, u := range p.spec.Users {
		tops[top(u.Roles[0])] = true
	}
	order := sortedKeys(tops)
	index := map[string]int{}
	for i, t := range order {
		index[t] = i
	}
	out := make([][]churnUser, callers)
	for _, u := range p.spec.Users {
		role := u.Roles[0]
		branch := index[top(role)]
		cu := churnUser{name: u.Name, role: role}
		if !shared[role] {
			if cu.neighbour = junior[role]; cu.neighbour == "" {
				cu.neighbour = senior[role]
			}
		}
		// The top of the next branch over: never junior to this user's role.
		cu.foreign = order[(branch+1)%len(order)]
		if cu.foreign == top(role) {
			cu.foreign = ""
		}
		out[branch%callers] = append(out[branch%callers], cu)
	}
	return out
}

type churn struct {
	p     *plan
	dep   *deployment
	cache *client.Cache
	users [][]churnUser
	seed  int64
	// callers carry their stream and lifecycle count from slice to slice.
	callers []*churnCaller
}

func openChurn(r *runner, p *plan, dep *deployment) (liveWorkload, error) {
	cache, err := client.New(dep.leader.wireAddr, &client.Options{Conns: generatorConns()})
	if err != nil {
		return nil, err
	}
	if !cache.Subscribed() {
		cache.Close()
		return nil, errors.New("client cache could not subscribe to epoch pushes")
	}
	w := &churn{p: p, dep: dep, cache: cache, users: churnUsers(p, churnCallers), seed: r.seed}
	for c := 0; c < churnCallers; c++ {
		w.callers = append(w.callers, w.caller(c, int64(c), nil))
	}
	return w, nil
}

// remoteTarget is the server as a churn caller sees it. Mutations go
// over HTTP and are timed; checks go through the shared client cache.
type remoteTarget struct {
	leader *child
	cache  *client.Cache
	start  time.Time
	writes []sample
	rec    *recorder
	parent int
	req    int64
}

func (t *remoteTarget) mutate(name, method, path, body string, out any) (bool, error) {
	id := t.rec.begin(name, t.parent, t.req)
	t0 := time.Now()
	denied, err := t.leader.call(method, path, body, out)
	if err == nil {
		t.writes = append(t.writes, sample{at: t0.Sub(t.start), lat: time.Since(t0)})
	}
	t.rec.end(id)
	return denied, err
}

func (t *remoteTarget) createSession(user string) (string, error) {
	var out struct{ Session string }
	_, err := t.mutate("rbacd.POST /v1/sessions", "POST", "/v1/sessions", fmt.Sprintf(`{"user":%q}`, user), &out)
	return out.Session, err
}

func (t *remoteTarget) deleteSession(sid string) error {
	_, err := t.mutate("rbacd.DELETE /v1/sessions", "DELETE", "/v1/sessions", fmt.Sprintf(`{"session":%q}`, sid), nil)
	return err
}

func (t *remoteTarget) activate(user, sid, role string) (bool, error) {
	return t.mutate("rbacd.POST /v1/activate", "POST", "/v1/activate", fmt.Sprintf(`{"user":%q,"session":%q,"role":%q}`, user, sid, role), nil)
}

func (t *remoteTarget) deactivate(user, sid, role string) (bool, error) {
	return t.mutate("rbacd.POST /v1/deactivate", "POST", "/v1/deactivate", fmt.Sprintf(`{"user":%q,"session":%q,"role":%q}`, user, sid, role), nil)
}

func (t *remoteTarget) assign(user, role string) (bool, error) {
	return t.mutate("rbacd.POST /v1/assign", "POST", "/v1/assign", fmt.Sprintf(`{"user":%q,"role":%q}`, user, role), nil)
}

func (t *remoteTarget) deassign(user, role string) (bool, error) {
	return t.mutate("rbacd.POST /v1/deassign", "POST", "/v1/deassign", fmt.Sprintf(`{"user":%q,"role":%q}`, user, role), nil)
}

func (t *remoteTarget) check(sid, operation, object string) (bool, error) {
	id := t.rec.begin("client.Cache.Check", t.parent, t.req)
	ok, err := t.cache.Check(sid, operation, object)
	t.rec.end(id)
	return ok, err
}

// lifecycleResult is what one session lifecycle did.
type lifecycleResult struct {
	tally
	mutations int64
	checkTime time.Duration // the block of churnChecks checks
}

// lifecycle runs one session lifecycle of a churn caller against tgt,
// mirroring every step into the oracle: create, activate one or two
// roles, churnChecks checks over churnPerms permissions, deactivate,
// every churnAssignEvery-th time an assign/deassign pair, delete.
func (p *plan) lifecycle(rng *rand.Rand, users []churnUser, n int64, tgt target) (lifecycleResult, error) {
	var res lifecycleResult
	u := users[rng.Intn(len(users))]
	oracle := func(f func()) {
		p.mu.Lock()
		f()
		p.mu.Unlock()
	}
	judge := func(denied bool, oracleErr error) {
		res.decided++
		res.wrong += b2i(denied != (oracleErr != nil))
	}

	res.attempted++
	sid, err := tgt.createSession(u.name)
	if err != nil {
		res.failed++
		return res, err
	}
	res.mutations++
	var osid rbac.SessionID
	var oerr error
	oracle(func() { osid, oerr = p.oracle.CreateSession(rbac.UserID(u.name)) })
	if oerr != nil {
		return res, fmt.Errorf("oracle: create session: %w", oerr)
	}

	roles := []string{u.role}
	if u.foreign != "" && rng.Float64() < churnForeignShare {
		roles[0] = u.foreign
	}
	if u.neighbour != "" && rng.Float64() < churnTwoRoleShare {
		roles = append(roles, u.neighbour)
	}
	var active []string
	for _, role := range roles {
		res.attempted++
		denied, err := tgt.activate(u.name, sid, role)
		if err != nil {
			res.failed++
			return res, err
		}
		res.mutations++
		oracle(func() { oerr = p.oracle.AddActiveRole(rbac.UserID(u.name), osid, rbac.RoleID(role)) })
		judge(denied, oerr)
		if !denied {
			active = append(active, role)
		}
	}

	perms := make([]tuple, churnPerms)
	probe := &sess{role: u.role}
	for i := range perms {
		if held := p.permsOf(u.role); len(held) == 0 || rng.Float64() < denyShare*2 {
			perms[i] = p.denyTuple(rng, probe)
		} else {
			perms[i] = p.allowTuple(rng, probe)
		}
	}
	t0 := time.Now()
	for i := 0; i < churnChecks; i++ {
		perm := perms[i%len(perms)].perm
		res.attempted++
		got, err := tgt.check(sid, perm.Operation, perm.Object)
		if err != nil {
			res.failed++
			return res, err
		}
		var want bool
		oracle(func() { want = p.oracle.CheckAccess(osid, perm) })
		res.decided++
		res.wrong += b2i(got != want)
	}
	res.checkTime = time.Since(t0)

	for i := len(active) - 1; i >= 0; i-- {
		res.attempted++
		denied, err := tgt.deactivate(u.name, sid, active[i])
		if err != nil {
			res.failed++
			return res, err
		}
		res.mutations++
		oracle(func() { oerr = p.oracle.DropActiveRole(rbac.UserID(u.name), osid, rbac.RoleID(active[i])) })
		judge(denied, oerr)
	}
	if n%churnAssignEvery == 0 && u.neighbour != "" {
		res.attempted += 2
		denied, err := tgt.assign(u.name, u.neighbour)
		if err != nil {
			res.failed++
			return res, err
		}
		oracle(func() { oerr = p.oracle.AssignUser(rbac.UserID(u.name), rbac.RoleID(u.neighbour)) })
		judge(denied, oerr)
		denied, err = tgt.deassign(u.name, u.neighbour)
		if err != nil {
			res.failed++
			return res, err
		}
		oracle(func() { oerr = p.oracle.DeassignUser(rbac.UserID(u.name), rbac.RoleID(u.neighbour)) })
		judge(denied, oerr)
		res.mutations += 2
	}
	res.attempted++
	if err := tgt.deleteSession(sid); err != nil {
		res.failed++
		return res, err
	}
	res.mutations++
	oracle(func() { oerr = p.oracle.DeleteSession(osid) })
	if oerr != nil {
		return res, fmt.Errorf("oracle: delete session: %w", oerr)
	}
	return res, nil
}

// churnCaller is one closed-loop caller of churn_mixed.
type churnCaller struct {
	rng   *rand.Rand
	users []churnUser
	tgt   *remoteTarget
	n     int64
}

func (w *churn) caller(c int, stream int64, rec *recorder) *churnCaller {
	return &churnCaller{rng: rand.New(rand.NewSource(w.seed*1000 + stream)), users: w.users[c],
		tgt: &remoteTarget{leader: w.dep.leader, cache: w.cache, rec: rec}}
}

func (w *churn) slice(d time.Duration) (*measured, error) {
	type tallied struct {
		tally
		mutations int64
		checks    []sample // per lifecycle: mean latency of its checks
	}
	per := make([]tallied, churnCallers)
	start := time.Now()
	for _, cc := range w.callers {
		cc.tgt.start, cc.tgt.writes = start, nil
	}
	before := w.cache.Stats()
	loop := closedLoop(churnCallers, d, func(c int) (int64, int64, error) {
		cc := w.callers[c]
		cc.n++
		t0 := time.Now()
		lr, err := w.p.lifecycle(cc.rng, cc.users, cc.n, cc.tgt)
		per[c].tally.add(lr.tally)
		per[c].mutations += lr.mutations
		if err == nil {
			per[c].checks = append(per[c].checks, sample{at: t0.Sub(start), lat: lr.checkTime / churnChecks})
		}
		return churnChecks, 0, err
	})
	after := w.cache.Stats()
	// The loop's own tally counted lifecycles; the callers' tallies count
	// every request. checks_per_s counts checks only: churnChecks per
	// finished lifecycle.
	m := &measured{closedFor: loop.elapsed, latencyPhase: d}
	for c, cc := range w.callers {
		m.tally.add(per[c].tally)
		m.writes = append(m.writes, cc.tgt.writes...)
		m.latency = append(m.latency, per[c].checks...)
		m.ops += per[c].mutations
		m.checks += int64(len(per[c].checks)) * churnChecks
	}
	m.ops += m.checks
	m.cache = &client.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Invalidations: after.Invalidations - before.Invalidations}
	return m, nil
}

func (w *churn) request(rec *recorder) func(int) (int64, int64, error) {
	cc := w.caller(0, streamFor(rec), rec)
	cc.tgt.start = time.Now()
	return func(int) (int64, int64, error) {
		cc.n++
		root := rec.begin("loadgen.request", 0, cc.n)
		cc.tgt.parent, cc.tgt.req = root, cc.n
		lr, err := w.p.lifecycle(cc.rng, cc.users, cc.n, cc.tgt)
		rec.end(root)
		return lr.decided, lr.wrong, err
	}
}

func (w *churn) close() { w.cache.Close() }

// ---------------------------------------------------------------------
// reload_fleet

type reloadFleet struct {
	*perTuple
	p *plan
}

func openReloadFleet(r *runner, p *plan, dep *deployment) (liveWorkload, error) {
	pt, err := openPerTuple(r, p, dep, r.sc.rateReload)
	if err != nil {
		return nil, err
	}
	if err := p.sameUnderVariant(pt.stream); err != nil {
		pt.close()
		return nil, err
	}
	return &reloadFleet{perTuple: pt, p: p}, nil
}

// reloader alternates the two policy variants on the leader, one POST
// every reloadPeriod, until stopped, timing each POST and the replica's
// convergence after it.
type reloader struct {
	tally
	start                      time.Time
	reloads, converges, writes []sample
	// lagMax is the most epochs the replica was seen behind the leader
	// right after a reload was acknowledged.
	lagMax uint64
	// stale counts reloads after which the converged replica served the
	// previous policy text.
	stale int64
	err   error

	halt chan struct{}
	once sync.Once // stop may be called twice
	done chan struct{}
}

// startReloads runs the reloader in the background until stop.
func (w *reloadFleet) startReloads() *reloader {
	rl := &reloader{start: time.Now(), halt: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(rl.done)
		w.reload(rl)
	}()
	return rl
}

// stop ends the reloader after the reload in progress and returns the
// error that ended it early, if any.
func (rl *reloader) stop() error {
	rl.once.Do(func() { close(rl.halt) })
	<-rl.done
	return rl.err
}

func (w *reloadFleet) reload(rl *reloader) {
	fail := func(err error) {
		rl.failed++
		rl.err = err
	}
	ctl, err := wire.Dial(w.dep.replica.wireAddr, nil)
	if err != nil {
		fail(err)
		return
	}
	defer ctl.Close()
	variants := [2]string{w.p.variant, w.p.source}
	for i := 0; ; i++ {
		// The i-th reload is due at start + i periods; one that overran
		// its period delays the next, it does not cancel it.
		select {
		case <-rl.halt:
			return
		case <-time.After(time.Until(rl.start.Add(time.Duration(i) * reloadPeriod))):
		}
		v := i % 2
		rl.attempted++
		t0 := time.Now()
		if _, err := w.dep.leader.call("POST", "/v1/policy", variants[v], nil); err != nil {
			fail(err)
			return
		}
		acked := time.Now()
		lag, err := awaitEpoch(w.dep.leader, ctl, 30*time.Second)
		if err != nil {
			fail(err)
			return
		}
		if lag > rl.lagMax {
			rl.lagMax = lag
		}
		done := time.Now()
		// The epoch says the replica installed a snapshot; its policy text
		// says whether it was the right one. It is not always: an export
		// that interleaves with the leader's ApplyPolicy pairs the old text
		// with the new state at the final epoch (README.md, "found while
		// building"). That is the server's defect, not a wrong verdict of
		// this workload, so it is counted on its own and gates nothing.
		served, err := w.dep.replica.policy()
		if err != nil {
			fail(err)
			return
		}
		rl.stale += b2i(served != variants[v])
		at := t0.Sub(rl.start)
		rl.reloads = append(rl.reloads, sample{at: at, lat: acked.Sub(t0)})
		rl.converges = append(rl.converges, sample{at: at, lat: done.Sub(acked)})
		rl.writes = append(rl.writes, sample{at: at, lat: done.Sub(t0)})
	}
}

func (w *reloadFleet) request(rec *recorder) func(int) (int64, int64, error) {
	return w.perTuple.request(rec)
}
