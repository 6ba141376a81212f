package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number. N is the count of timed samples (or
// counted events) behind it; Derived marks a value computed from other
// numbers instead of being timed itself.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n,omitempty"`
	Derived bool    `json:"derived,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Decided   int64             `json:"decided"`
	Wrong     int64             `json:"wrong"`
	Gates     []string          `json:"gates_failed,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Info holds numbers printed for the reader but not part of the
	// contract: p999, shares of failures and wrong verdicts, capacities.
	Info map[string]metric `json:"info,omitempty"`
}

func newResult(def workloadDef, seed int64, traced bool) *result {
	return &result{Workload: def.name, Seed: seed, Traced: traced,
		Metrics: map[string]metric{}, Info: map[string]metric{}}
}

func (res *result) count(t tally) {
	res.Attempted += t.attempted
	res.Failed += t.failed
	res.Decided += t.decided
	res.Wrong += t.wrong
}

func (res *result) gate(ok bool, format string, args ...any) {
	if !ok {
		res.Gates = append(res.Gates, fmt.Sprintf(format, args...))
	}
}

// gateCache checks that the workload still sits on the side of the
// verdict cache its name promises.
func (res *result) gateCache(hitShare float64) {
	switch res.Workload {
	case "hot_wire":
		res.gate(hitShare >= gateHotHitShareMin, "verdict-cache hit share %.3f is below %.2f: the hot set no longer fits", hitShare, gateHotHitShareMin)
	case "cold_batch":
		res.gate(hitShare <= gateColdHitShareMax, "verdict-cache hit share %.3f is above %.2f: the workload is no longer cold", hitShare, gateColdHitShareMax)
	}
}

// finish settles correctness: every verdict matched the oracle, no
// operation failed, no validity gate tripped, every metric is a number.
func (res *result) finish() {
	if res.Attempted > 0 {
		res.Info["failed_share"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "share", N: int(res.Attempted), Derived: true}
	}
	if res.Decided > 0 {
		res.Info["wrong_share"] = metric{Value: float64(res.Wrong) / float64(res.Decided), Unit: "share", N: int(res.Decided), Derived: true}
	}
	res.gate(res.Wrong == 0, "%d of %d verdicts differ from the oracle", res.Wrong, res.Decided)
	res.gate(res.Failed == 0, "%d of %d operations failed", res.Failed, res.Attempted)
	for _, name := range sortedKeys(res.Metrics) {
		v := res.Metrics[name].Value
		res.gate(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s is not a number", name)
	}
	res.Correct = len(res.Gates) == 0
}

// generatorProcs and generatorConns fix the load generator's share of
// the host: never more threads or connections than CPUs, and on a
// 2-CPU host one thread, so the server keeps a CPU of its own.
// Goroutines on top of the connections supply the pipelining.
func generatorProcs() int {
	if runtime.NumCPU() <= 2 {
		return 1
	}
	return 2
}

func generatorConns() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// setUpRepeatedly sets the workload up setupRepeats times on fresh
// children and keeps the last deployment. It returns every set-up's
// time and its mutations.
func (r *runner) setUpRepeatedly(p *plan, fleet bool, repeats int) (*deployment, []time.Duration, [][]sample, error) {
	var took []time.Duration
	var writes [][]sample
	var dep *deployment
	for i := 0; i < repeats; i++ {
		if dep != nil {
			dep.close()
		}
		var err error
		r.guard.awaitCalm()
		if dep, err = r.setUp(p, fleet); err != nil {
			return nil, nil, nil, err
		}
		took = append(took, dep.took)
		writes = append(writes, dep.writes)
	}
	return dep, took, writes, nil
}

// reloading is a workload that edits the policy in the background
// while its slices run.
type reloading interface{ startReloads() *reloader }

// load warms the workload up and measures runSlices slices of it,
// each d/runSlices long, with the host guard between them: it waits
// while the host is disturbed and measures a slice again that ended on a
// disturbed host. Verdicts of discarded slices still count towards
// correctness; their timings do not exist.
func (r *runner) load(w liveWorkload, dep *deployment, d time.Duration) (*measured, error) {
	var rl *reloader
	if rw, ok := w.(reloading); ok {
		rl = rw.startReloads()
		defer rl.stop() // a second stop after the one below is harmless: see reloader.stop
	}
	if _, err := w.slice(r.sc.warmup); err != nil {
		return nil, err
	}
	total := &measured{}
	sliceLen := d / runSlices
	var from []time.Time // when each accepted slice began
	r.guard.awaitCalm()
	for len(from) < runSlices {
		cpu0, err := dep.cpu()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		m, err := w.slice(sliceLen)
		if err != nil {
			return nil, err
		}
		m.elapsed = time.Since(t0)
		cpu1, err := dep.cpu()
		if err != nil {
			return nil, err
		}
		m.cpuS = cpu1 - cpu0
		// One check serves as this slice's "after" and the next one's
		// "before".
		if r.guard.discard(m.elapsed) {
			total.tally.add(m.tally)
			r.guard.awaitCalm()
			continue
		}
		total.merge(m, len(from))
		from = append(from, t0)
	}
	if rl == nil {
		return total, nil
	}
	if err := rl.stop(); err != nil {
		return nil, err
	}
	// Keep the reloads that began inside an accepted slice, placed where
	// that slice sits in the merged run.
	total.tally.add(rl.tally)
	total.lagMax, total.staleInstalls = rl.lagMax, rl.stale
	for i, sm := range rl.writes {
		began := rl.start.Add(sm.at)
		for k, t0 := range from {
			if off := began.Sub(t0); off >= 0 && off < sliceLen {
				at := time.Duration(k)*sliceLen + off
				total.writes = append(total.writes, sample{at: at, lat: sm.lat})
				total.reloads = append(total.reloads, sample{at: at, lat: rl.reloads[i].lat})
				total.converges = append(total.converges, sample{at: at, lat: rl.converges[i].lat})
				total.ops++
				break
			}
		}
	}
	return total, nil
}

// runE2E is the untraced run: the end-to-end metrics of one workload.
func (r *runner) runE2E(def workloadDef, seconds time.Duration) (*result, error) {
	res := newResult(def, r.seed, false)
	r.guard = newHostGuard(r.outDir, r.sc.guardBudget)
	defer r.guard.save()
	p, err := def.plan(r.sc, r.seed)
	if err != nil {
		return nil, err
	}
	dep, setups, setupWrites, err := r.setUpRepeatedly(p, def.fleet, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	res.count(dep.tally)

	w, err := def.open(r, p, dep)
	if err != nil {
		return nil, err
	}
	defer w.close()
	fp0, err := dep.reads().fastPath()
	if err != nil {
		return nil, err
	}
	m, err := r.load(w, dep, seconds)
	if err != nil {
		return nil, err
	}
	if err := dep.died(); err != nil {
		return nil, err
	}
	fp1, err := dep.reads().fastPath()
	if err != nil {
		return nil, err
	}
	res.count(m.tally)
	res.Info["sentinel.fastpath_hit_share"] = metric{Value: fp1.hitShare(fp0), Unit: "share", Derived: true}
	if r.sc.cacheGates {
		res.gateCache(fp1.hitShare(fp0))
	}

	res.Metrics["setup_s"] = metric{Value: medianDuration(setups).Seconds(), Unit: "s", N: len(setups)}
	res.Metrics["checks_per_s"] = metric{Value: float64(m.checks) / m.closedFor.Seconds(), Unit: "1/s", N: int(m.checks)}
	checks := sortedLat(m.latency)
	res.Metrics["check_p50_us"] = metric{Value: us(quantile(checks, 0.5)), Unit: "us", N: len(checks)}
	// The read-only workloads write during set-up only; that is where
	// their write latency is taken: the median set-up's median, which one
	// disturbed set-up in three does not move.
	writes := sortedLat(m.writes)
	writeP50 := quantile(writes, 0.5)
	if len(writes) == 0 {
		var medians []time.Duration
		for _, ws := range setupWrites {
			medians = append(medians, quantile(sortedLat(ws), 0.5))
			writes = append(writes, sortedLat(ws)...)
		}
		sort.Slice(writes, func(i, j int) bool { return writes[i] < writes[j] })
		writeP50 = medianDuration(medians)
	}
	res.Metrics["write_p50_us"] = metric{Value: us(writeP50), Unit: "us", N: len(writes)}
	res.Metrics["server_cpu_us_per_op"] = metric{Value: m.cpuS * 1e6 / float64(m.ops), Unit: "us", N: int(m.ops), Derived: true}
	var hwm float64
	for _, c := range dep.children() {
		u, err := c.usage()
		if err != nil {
			return nil, err
		}
		hwm = math.Max(hwm, u.hwmMB)
	}
	res.Metrics["server_rss_mb"] = metric{Value: hwm, Unit: "MB", N: 1}

	// Tails are printed but gate nothing: on a two-CPU host their
	// run-to-run spread is wider than any bound the contract allows
	// (README.md has the numbers). p999 needs ten samples beyond it.
	res.Info["check_p99_us"] = metric{Value: us(quantile(checks, 0.99)), Unit: "us", N: len(checks)}
	if len(checks) >= 10_000 {
		res.Info["check_p999_us"] = metric{Value: us(quantile(checks, 0.999)), Unit: "us", N: len(checks)}
	}
	res.Info["write_p90_us"] = metric{Value: us(quantile(writes, 0.9)), Unit: "us", N: len(writes)}
	if len(m.late) > 0 {
		late := append([]time.Duration(nil), m.late...)
		sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
		res.Info["loadgen.late_p50_us"] = metric{Value: us(quantile(late, 0.5)), Unit: "us", N: len(late)}
		res.Info["loadgen.late_p99_us"] = metric{Value: us(quantile(late, 0.99)), Unit: "us", N: len(late)}
	}
	if def.fleet {
		res.Info["replicate.stale_policy_installs"] = metric{Value: float64(m.staleInstalls), Unit: "count", N: len(m.reloads)}
	}
	res.Info["loadgen.sent_share"] = metric{Value: m.sentShare(), Unit: "share", N: len(m.late)}
	res.gate(m.sentShare() >= gateSentShareMin, "the open loop sent %.4f of its schedule, below %.3f", m.sentShare(), gateSentShareMin)
	r.guard.report(res)
	res.finish()
	return res, nil
}
