// Command bench regenerates every experiment in DESIGN.md (F1, E1-E9)
// and prints paper-style result tables. It is the human-readable
// counterpart of `go test -bench=.`: the same code paths, but with
// derived metrics (ratios, rule counts, touched-role counts) that the
// EXPERIMENTS.md write-up quotes.
//
// Usage:
//
//	bench [-exp all|F1|E1|OBS|FASTPATH|WIRE|BATCH|REPLICA|E2|E3|E4|E5|E6|E7|E8|E9] [-smoke]
//	bench -compare OLD.json NEW.json
//
// OBS writes BENCH_obs.json with the observability-overhead series: a
// parallel CheckAccess workload (1..64 client goroutines) under
// tracing off / metrics only / 1% sampled tracing / full-rate trace
// ring / full trace retention, each measured uncached (full cascade)
// and — for off and sampled — cached (fast path on); -smoke shrinks it
// for CI. FASTPATH writes BENCH_fastpath.json with the decision
// fast path off/on on the same parallel workload (repeat-heavy, so the
// on series measures the cache hit path); -smoke shrinks it to one
// short round for CI and skips the JSON file. WIRE writes
// BENCH_wire.json comparing remote-check transports against one live
// engine: HTTP/JSON vs single wire checks vs batched wire checks vs
// the embedded client decision cache (client_cached: repeat allows
// served locally under epoch-push invalidation).
// BATCH writes BENCH_batch.json comparing the batch-native decision
// path against per-tuple evaluation: in-process CheckAccessBatch vs a
// CheckAccessTuple loop (fast path off and on), and wire CHECK_BATCH
// served by a BatchBackend vs the plain-Backend per-tuple fan-out.
// REPLICA writes BENCH_replica.json with the replicated-read-fleet
// series: aggregate read throughput vs replica count, each replica a
// fixed-capacity node synced over the real wire SYNC protocol (see the
// capacity-model note on replicaBench).
// -compare diffs two benchmark JSON series benchstat-style.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"activerbac"
	clientcache "activerbac/client"
	"activerbac/internal/baseline"
	"activerbac/internal/clock"
	"activerbac/internal/conformance"
	"activerbac/internal/event"
	"activerbac/internal/policy"
	"activerbac/internal/security"
	"activerbac/internal/wire"
	"activerbac/internal/workload"
)

var epoch = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, F1, E1, OBS, FASTPATH, WIRE, BATCH, REPLICA, E2..E9)")
	smoke := flag.Bool("smoke", false, "one short round per experiment that supports it; skip JSON output")
	compare := flag.Bool("compare", false, "compare two benchmark JSON series: bench -compare OLD.json NEW.json")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs exactly two files: OLD.json NEW.json")
			os.Exit(2)
		}
		if err := compareSeries(flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	run := func(name string, fn func()) {
		if *exp == "all" || strings.EqualFold(*exp, name) {
			fn()
		}
	}
	run("F1", f1)
	run("E1", e1)
	run("OBS", func() { obsBench(*smoke) })
	run("FASTPATH", func() { fastpathBench(*smoke) })
	run("WIRE", func() { wireBench(*smoke) })
	run("BATCH", func() { batchBench(*smoke) })
	run("REPLICA", func() { replicaBench(*smoke) })
	run("E2", e2)
	run("E3", e3)
	run("E4", e4)
	run("E5", e5)
	run("E6", e6)
	run("E7", e7)
	run("E8", e8)
	run("E9", e9)
}

func header(id, title string) {
	fmt.Printf("\n=== %s: %s ===\n", id, title)
}

func nsPerOp(fn func(b *testing.B)) float64 {
	r := testing.Benchmark(fn)
	return float64(r.NsPerOp())
}

// round3 rounds a JSON-bound metric to 3 decimals: digits past that are
// measurement jitter, and stable digits keep BENCH_*.json diffs and
// bench-compare output readable.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

func open(src string) *activerbac.System {
	sys, err := activerbac.Open(src, &activerbac.Options{Clock: clock.NewSim(epoch)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	return sys
}

// ---------------------------------------------------------------------------

// f1 reproduces Figure 1: the enterprise XYZ policy, its graph flags
// and the generated rule inventory.
func f1() {
	header("F1", "enterprise XYZ policy -> access specification graph -> rule pool (Figure 1)")
	spec := workload.XYZ()
	graph, err := policy.BuildGraph(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println("graph:")
	for _, role := range graph.Roles() {
		n, _ := graph.Node(role)
		fmt.Printf("  %-6s hierarchy=%-5v ssd=%-5v ssd-inherited=%-5v cardinality=%d\n",
			role, n.Hierarchy, n.StaticSoD, n.InheritedStaticSoD, n.Cardinality)
	}
	sys := open(policy.Format(spec))
	defer sys.Close()
	counts := map[string]int{}
	for _, r := range sys.Rules() {
		kind := strings.SplitN(r.Name, ".", 2)[0]
		counts[kind]++
	}
	fmt.Printf("generated rules: %d total\n", len(sys.Rules()))
	for _, k := range []string{"AAR2", "DAR", "ENB", "TSOD1", "CC1", "CA1", "CAP1", "ADM", "CTX"} {
		fmt.Printf("  %-6s %d\n", k, counts[k])
	}
	// The paper's Section 5 claim in action: PM inherits PC's conflict.
	if err := sys.AssignUser("alice", "AM"); err != nil {
		fmt.Printf("SSD inheritance verified: alice(PM) + AM -> %v\n", err)
	}
	gen := nsPerOp(func(b *testing.B) {
		src := policy.Format(spec)
		for i := 0; i < b.N; i++ {
			s := open(src)
			s.Close()
		}
	})
	fmt.Printf("full generation time: %.0f us\n", gen/1e3)
}

// e1: CheckAccess latency vs role count, OWTE vs baseline.
func e1() {
	header("E1", "CheckAccess latency vs enterprise size (OWTE vs direct baseline)")
	fmt.Printf("%-8s %12s %12s %8s\n", "roles", "owte ns/op", "base ns/op", "ratio")
	for _, roles := range []int{8, 64, 256} {
		cfg := workload.EnterpriseConfig{
			Roles: roles, Shape: workload.XYZShape, Branch: 4,
			SSDFraction: 0.3, Users: 64, PermsPerRole: 3, Seed: 1,
		}
		spec := workload.MustEnterprise(cfg)
		measure := func(owte bool) float64 {
			return nsPerOp(func(b *testing.B) {
				sim := clock.NewSim(epoch)
				var enf baseline.Enforcer
				if owte {
					sys := open(policy.Format(spec))
					defer sys.Close()
					enf = sys
				} else {
					eng, err := baseline.New(sim, spec)
					if err != nil {
						b.Fatal(err)
					}
					enf = eng
				}
				drv := workload.NewDriver(enf)
				if err := drv.Run(workload.Stream(spec, workload.ActivateHeavyMix, 4*len(spec.Users), 2)); err != nil {
					b.Fatal(err)
				}
				reqs := workload.Stream(spec, workload.CheckOnlyMix, 4096, 3)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := drv.Do(reqs[i%len(reqs)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		o, base := measure(true), measure(false)
		fmt.Printf("%-8d %12.0f %12.0f %7.1fx\n", roles, o, base, o/base)
	}
}

// benchClient is one steady-state caller: a session with the user's own
// (most junior assigned) role active and a permission that role actually
// grants — the allow path the paper's E1 measures.
type benchClient struct {
	sid  activerbac.SessionID
	perm activerbac.Permission
}

// benchClients builds one client per runnable user in spec.
func benchClients(sys *activerbac.System, spec *policy.Spec) []benchClient {
	var clients []benchClient
	for _, u := range spec.Users {
		if len(u.Roles) == 0 {
			continue
		}
		role := u.Roles[0]
		var perm activerbac.Permission
		for _, p := range spec.Permissions {
			if p.Role == role {
				perm = activerbac.Permission{Operation: p.Operation, Object: p.Object}
				break
			}
		}
		if perm.Operation == "" {
			continue
		}
		sid, err := sys.CreateSession(activerbac.UserID(u.Name))
		if err != nil {
			continue
		}
		if err := sys.AddActiveRole(activerbac.UserID(u.Name), sid, activerbac.RoleID(role)); err != nil {
			continue
		}
		clients = append(clients, benchClient{sid: sid, perm: perm})
	}
	return clients
}

// checkRound runs one timed round: g goroutines x perG CheckAccess
// calls each against sys.
func checkRound(sys *activerbac.System, clients []benchClient, g, perG int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(c benchClient) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				sys.CheckAccess(c.sid, c.perm)
			}
		}(clients[i%len(clients)])
	}
	wg.Wait()
	return time.Since(start)
}

// checkRoundMem is checkRound plus the allocator's view of it: the
// process-wide malloc-count and byte deltas across the round. Drains
// and detector delivery may run on other callers' goroutines, so the
// process-wide delta is the honest per-check figure, at the price of a
// little GC-bookkeeping noise in the byte column.
func checkRoundMem(sys *activerbac.System, clients []benchClient, g, perG int) (time.Duration, uint64, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d := checkRound(sys, clients, g, perG)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// roundStats summarises a best-of measurement: throughput from the
// fastest round (a descheduling blip must not masquerade as engine
// cost), allocation columns averaged over every timed round (allocs are
// deterministic per check, so averaging smooths GC noise instead).
type roundStats struct {
	total       int
	ops         float64
	nsPerOp     float64
	bPerOp      float64
	allocsPerOp float64
}

// parallelChecks runs the timed rounds for one (goroutines, perG)
// point. An untimed warmup round settles drain buffers and the
// scheduler; rounds repeat until half a second of samples accumulates
// (at least three).
func parallelChecks(sys *activerbac.System, clients []benchClient, g, perG int) roundStats {
	checkRound(sys, clients, g, perG/4) // warmup
	total := g * perG
	var best, spent time.Duration
	var mallocs, bytes, checks uint64
	for r := 0; r < 3 || spent < 500*time.Millisecond; r++ {
		d, mal, by := checkRoundMem(sys, clients, g, perG)
		spent += d
		mallocs += mal
		bytes += by
		checks += uint64(total)
		if best == 0 || d < best {
			best = d
		}
	}
	ops := float64(total) / best.Seconds()
	return roundStats{
		total:       total,
		ops:         ops,
		nsPerOp:     1e9 / ops,
		bPerOp:      float64(bytes) / float64(checks),
		allocsPerOp: float64(mallocs) / float64(checks),
	}
}

// obsBench: observability overhead on the parallel CheckAccess series:
// a 64-role enterprise, one steady-state client per user (benchClients),
// driven under two series of observability modes. The uncached
// (full-cascade) series: off (no observer wired),
// metrics (registry only, no trace ring), sampled (metrics plus a
// 256-entry trace ring with 1% sampled tracing — the always-on
// production posture), ring (same ring tracing every decision, the
// pre-sampling rbacd default), and full (a ring large enough to retain
// every decision's cascade trace). The cached series repeats off and
// sampled with the fast path on, measuring sampling's cost on the
// verdict-cache hit path — the property that makes 1% tracing safe to
// leave on: unsampled checks still hit the cache. Results are printed
// and, unless smoke is set, written to BENCH_obs.json; each point's
// overhead is computed against its named baseline in the same series
// (metrics for the tracing modes, bare off for metrics itself).
func obsBench(smoke bool) {
	header("OBS", "observability overhead: off / metrics / sampled / ring / full, uncached and cached")
	cfg := workload.EnterpriseConfig{
		Roles: 64, Shape: workload.XYZShape, Branch: 4,
		SSDFraction: 0.3, Users: 64, PermsPerRole: 3, Seed: 1,
	}
	spec := workload.MustEnterprise(cfg)
	src := policy.Format(spec)
	checksPerGoroutine := 4000
	goroutines := []int{1, 4, 16, 64}
	rounds := 8
	if smoke {
		checksPerGoroutine = 256
		goroutines = []int{1, 4}
		rounds = 1
	}
	// "full" retains every trace of the largest run, so nothing is ever
	// evicted from the ring during the measurement.
	fullRing := goroutines[len(goroutines)-1] * checksPerGoroutine
	const sampleRate = 0.01
	// traceBudget is the recommended production posture for always-on
	// sampling: the coin flip keeps traces representative, the per-second
	// budget bounds the cascade tax when throughput is high. Without it a
	// verdict-cache hit costs ~0.5µs while a traced cascade costs ~5µs,
	// so even 1% sampling taxes the cached series ~9% — the nolimit rows
	// measure exactly that, and are why the limiter exists.
	const traceBudget = 100

	// Each mode names its overhead baseline: the tracing modes (sampled,
	// nolimit, ring, full) compare against the same series' metrics mode —
	// the "tracing off, observability on" posture rbacd actually runs — so
	// their overhead isolates the cost of *tracing*; metrics compares
	// against bare off, isolating the registry's own cost.
	modes := []struct {
		name, base string
		opts       activerbac.Options
	}{
		{"off", "off", activerbac.Options{}},
		{"metrics", "off", activerbac.Options{Metrics: true}},
		{"sampled", "metrics", activerbac.Options{Metrics: true, TraceBuffer: 256, TraceSample: sampleRate, TraceRateLimit: traceBudget}},
		{"nolimit", "metrics", activerbac.Options{Metrics: true, TraceBuffer: 256, TraceSample: sampleRate}},
		{"ring", "metrics", activerbac.Options{Metrics: true, TraceBuffer: 256}},
		{"full", "metrics", activerbac.Options{Metrics: true, TraceBuffer: fullRing}},
		{"off", "off", activerbac.Options{FastPath: true}},
		{"metrics", "off", activerbac.Options{Metrics: true, FastPath: true}},
		{"sampled", "metrics", activerbac.Options{Metrics: true, TraceBuffer: 256, TraceSample: sampleRate, TraceRateLimit: traceBudget, FastPath: true}},
		{"nolimit", "metrics", activerbac.Options{Metrics: true, TraceBuffer: 256, TraceSample: sampleRate, FastPath: true}},
	}

	// All systems stay open for the whole experiment and the timed
	// rounds interleave across them, so slow drift on a loaded host (cpu
	// frequency, neighbours) hits every mode alike instead of biasing
	// whichever mode ran last.
	type candidate struct {
		name     string
		buffer   int
		sample   float64
		limit    float64
		fastpath bool
		checks   int // per goroutine per round
		baseline int // index of this candidate's off reference
		sys      *activerbac.System
		clients  []benchClient
		best     map[int]time.Duration
	}
	var cands []*candidate
	var sims []*clock.Sim
	for _, mode := range modes {
		opts := mode.opts
		sim := clock.NewSim(epoch)
		opts.Clock = sim
		sys, err := activerbac.Open(src, &opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer sys.Close()
		clients := benchClients(sys, spec)
		if len(clients) == 0 {
			fmt.Fprintln(os.Stderr, "bench: OBS: no runnable clients")
			os.Exit(1)
		}
		c := &candidate{
			name: mode.name, buffer: opts.TraceBuffer, sample: opts.TraceSample,
			limit: opts.TraceRateLimit, fastpath: opts.FastPath,
			checks: checksPerGoroutine,
			sys:    sys, clients: clients,
			best: map[int]time.Duration{},
		}
		// Milliseconds-long timed rounds let scheduler jitter and the
		// clock-driver tick masquerade as overhead, so both series scale
		// their check counts until a round spans tens of milliseconds —
		// the cached series by more, since it runs ~10x faster.
		if c.fastpath {
			c.checks *= 8
		} else {
			c.checks *= 4
		}
		cands = append(cands, c)
		sims = append(sims, sim)
		for i, prev := range cands {
			if prev.name == mode.base && prev.fastpath == c.fastpath {
				c.baseline = i
				break
			}
		}
	}
	// The sampler's per-second trace budget needs seconds that actually
	// pass: drive every candidate's simulated clock forward in wall-clock
	// lockstep for the duration of the experiment, so the limited mode
	// refills its budget at the production cadence while every mode still
	// shares identical simulated timestamps.
	clockStop := make(chan struct{})
	var clockWG sync.WaitGroup
	clockWG.Add(1)
	go func() {
		defer clockWG.Done()
		start := time.Now()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-clockStop:
				return
			case <-tick.C:
				target := epoch.Add(time.Since(start))
				for _, s := range sims {
					s.AdvanceTo(target)
				}
			}
		}
	}()
	for _, g := range goroutines {
		for _, c := range cands {
			// The warmup also seeds the verdict cache for the cached series.
			checkRound(c.sys, c.clients, g, c.checks/4+1)
		}
		for r := 0; r < rounds; r++ {
			// Rotate the starting candidate each round: a noise episode
			// lasting a few rounds then degrades different modes in
			// different rounds instead of always the same neighbours.
			for i := range cands {
				c := cands[(r+i)%len(cands)]
				d := checkRound(c.sys, c.clients, g, c.checks)
				if best, ok := c.best[g]; !ok || d < best {
					c.best[g] = d
				}
			}
		}
	}
	close(clockStop)
	clockWG.Wait()

	type point struct {
		Mode        string  `json:"mode"`
		FastPath    bool    `json:"fastpath"`
		Baseline    string  `json:"baseline"`
		TraceBuffer int     `json:"trace_buffer"`
		TraceSample float64 `json:"trace_sample,omitempty"`
		TraceLimit  float64 `json:"trace_rate_limit,omitempty"`
		Goroutines  int     `json:"goroutines"`
		Checks      int     `json:"checks"`
		OpsPerSec   float64 `json:"ops_per_sec"`
		OverheadPct float64 `json:"overhead_pct"`
	}
	var series []point
	fmt.Printf("%-8s %-9s %-9s %-8s %-8s %-8s %-12s %14s %10s\n",
		"mode", "fastpath", "baseline", "traces", "sample", "limit", "goroutines", "checks/sec", "overhead")
	for _, c := range cands {
		ratioProduct := 1.0
		for _, g := range goroutines {
			total := g * c.checks
			ops := float64(total) / c.best[g].Seconds()
			// Overhead compares best round against best round. Host noise
			// (neighbours, frequency scaling) only ever adds time, so the
			// min over several interleaved rounds converges on each mode's
			// true cost; a paired-round or mean comparison lets one noisy
			// round on either side masquerade as overhead.
			baseBest := cands[c.baseline].best[g]
			ratio := c.best[g].Seconds() / baseBest.Seconds()
			ratioProduct *= ratio
			over := (ratio - 1) * 100
			series = append(series, point{
				Mode: c.name, FastPath: c.fastpath, Baseline: cands[c.baseline].name,
				TraceBuffer: c.buffer, TraceSample: c.sample, TraceLimit: c.limit,
				Goroutines: g, Checks: total, OpsPerSec: round3(ops), OverheadPct: round3(over),
			})
			fmt.Printf("%-8s %-9v %-9s %-8d %-8.2f %-8.0f %-12d %14.0f %9.1f%%\n",
				c.name, c.fastpath, cands[c.baseline].name, c.buffer, c.sample, c.limit, g, ops, over)
		}
		// The geomean row (goroutines 0) is the series-level verdict:
		// single-g rows on a shared host still carry ±10% of residual
		// noise, and the geometric mean across the concurrency sweep is
		// what a headline "x% overhead" claim should quote.
		geo := (math.Pow(ratioProduct, 1/float64(len(goroutines))) - 1) * 100
		series = append(series, point{
			Mode: c.name, FastPath: c.fastpath, Baseline: cands[c.baseline].name,
			TraceBuffer: c.buffer, TraceSample: c.sample, TraceLimit: c.limit,
			Goroutines: 0, OverheadPct: round3(geo),
		})
		fmt.Printf("%-8s %-9v %-9s %-8d %-8.2f %-8.0f %-12s %14s %9.1f%%\n",
			c.name, c.fastpath, cands[c.baseline].name, c.buffer, c.sample, c.limit, "geomean", "", geo)
	}
	if smoke {
		fmt.Println("smoke run: BENCH_obs.json not written")
		return
	}
	data, err := json.MarshalIndent(series, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCH_obs.json:", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_obs.json")
}

// fastpathBench: the decision fast path (copy-on-write snapshots plus
// the epoch-tagged verdict cache) off and on, on the OBS parallel
// series. The workload is repeat-heavy — every goroutine re-checks the
// same (session, permission) pair — which is exactly the read-mostly
// regime the cache targets, so the on series measures the hit path
// while off replays the full Sentinel+ cascade every time. Both systems
// stay open for the whole experiment and the timed rounds interleave
// across them (same fairness rationale as obsBench). Results are
// printed and, unless smoke is set, written to BENCH_fastpath.json;
// smoke shrinks the run to one short round per point so `make check`
// can exercise the whole path cheaply without touching the JSON.
func fastpathBench(smoke bool) {
	header("FASTPATH", "read-mostly fast path: cached vs full-cascade CheckAccess")
	cfg := workload.EnterpriseConfig{
		Roles: 64, Shape: workload.XYZShape, Branch: 4,
		SSDFraction: 0.3, Users: 64, PermsPerRole: 3, Seed: 1,
	}
	spec := workload.MustEnterprise(cfg)
	src := policy.Format(spec)
	checksPerGoroutine := 4000
	goroutines := []int{1, 4, 16, 64}
	sweeps, rounds := 3, 2
	if smoke {
		checksPerGoroutine = 256
		goroutines = []int{1, 4}
		sweeps, rounds = 1, 1
	}

	modes := []struct {
		name string
		opts activerbac.Options
	}{
		{"off", activerbac.Options{}},
		{"on", activerbac.Options{FastPath: true}},
	}
	type candidate struct {
		name    string
		sys     *activerbac.System
		clients []benchClient
		best    map[int]time.Duration
		mallocs map[int]uint64
		bytes   map[int]uint64
		rounds  map[int]int
	}
	var cands []*candidate
	for _, mode := range modes {
		opts := mode.opts
		opts.Clock = clock.NewSim(epoch)
		sys, err := activerbac.Open(src, &opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer sys.Close()
		clients := benchClients(sys, spec)
		if len(clients) == 0 {
			fmt.Fprintln(os.Stderr, "bench: FASTPATH: no runnable clients")
			os.Exit(1)
		}
		cands = append(cands, &candidate{
			name: mode.name, sys: sys, clients: clients,
			best:    map[int]time.Duration{},
			mallocs: map[int]uint64{}, bytes: map[int]uint64{},
			rounds: map[int]int{},
		})
	}
	// Full sweeps over the goroutine ladder, best round kept per
	// (mode, g): each sweep revisits every point at a different
	// wall-clock time, so slow drift on the host (cpu frequency,
	// thermals, neighbours) can't systematically bias the low-g points
	// that would otherwise always run first — and coolest.
	for s := 0; s < sweeps; s++ {
		for _, g := range goroutines {
			for _, c := range cands {
				// The warmup also seeds the verdict cache for the on mode.
				checkRound(c.sys, c.clients, g, checksPerGoroutine/4+1)
			}
			for r := 0; r < rounds; r++ {
				for _, c := range cands {
					d, mal, by := checkRoundMem(c.sys, c.clients, g, checksPerGoroutine)
					if best, ok := c.best[g]; !ok || d < best {
						c.best[g] = d
					}
					c.mallocs[g] += mal
					c.bytes[g] += by
					c.rounds[g]++
				}
			}
		}
	}

	type point struct {
		Mode        string  `json:"mode"`
		Goroutines  int     `json:"goroutines"`
		Checks      int     `json:"checks"`
		OpsPerSec   float64 `json:"ops_per_sec"`
		NsPerOp     float64 `json:"ns_per_op"`
		BPerOp      float64 `json:"b_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		SpeedupPct  float64 `json:"speedup_pct"`
	}
	var series []point
	fmt.Printf("%-6s %-12s %14s %10s %10s %12s %9s\n",
		"mode", "goroutines", "checks/sec", "ns/op", "B/op", "allocs/op", "speedup")
	for _, c := range cands {
		for _, g := range goroutines {
			total := g * checksPerGoroutine
			ops := float64(total) / c.best[g].Seconds()
			base := float64(total) / cands[0].best[g].Seconds()
			speed := (ops/base - 1) * 100
			checks := float64(total) * float64(c.rounds[g])
			series = append(series, point{
				Mode: c.name, Goroutines: g, Checks: total,
				OpsPerSec: round3(ops), NsPerOp: round3(1e9 / ops),
				BPerOp:      round3(float64(c.bytes[g]) / checks),
				AllocsPerOp: round3(float64(c.mallocs[g]) / checks),
				SpeedupPct:  round3(speed),
			})
			fmt.Printf("%-6s %-12d %14.0f %10.0f %10.1f %12.2f %+8.1f%%\n",
				c.name, g, ops, 1e9/ops,
				float64(c.bytes[g])/checks, float64(c.mallocs[g])/checks, speed)
		}
	}
	for _, c := range cands {
		if st, err := c.sys.FastPathStats(); err == nil {
			fmt.Printf("fastpath[%s]: hits=%d misses=%d bypass=%d invalidations=%d epoch=%d\n",
				c.name, st.Hits, st.Misses, st.Bypass, st.Invalidations, st.Epoch)
		}
	}
	if smoke {
		fmt.Println("smoke run: BENCH_fastpath.json not written")
		return
	}
	data, err := json.MarshalIndent(series, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_fastpath.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCH_fastpath.json:", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_fastpath.json")
}

// wireBench: remote-check transport comparison. One live engine (fast
// path on) serves the same repeat-heavy check workload
// over three transports: rbacd-style HTTP/JSON (GET /v1/check), single
// wire CHECK frames, and wire CHECK_BATCH frames of 64. Sweeps are
// interleaved across the goroutine ladder like FASTPATH so host drift
// cannot bias one transport; the best round per (transport, g) is kept.
// Results go to BENCH_wire.json with each point's speedup over HTTP at
// the same concurrency.
func wireBench(smoke bool) {
	header("WIRE", "remote check transports: HTTP/JSON vs wire single vs wire batched vs client-cached")
	cfg := workload.EnterpriseConfig{
		Roles: 64, Shape: workload.XYZShape, Branch: 4,
		SSDFraction: 0.3, Users: 64, PermsPerRole: 3, Seed: 1,
	}
	spec := workload.MustEnterprise(cfg)
	src := policy.Format(spec)
	checksPerGoroutine := 4096
	goroutines := []int{1, 4, 16, 64}
	sweeps, rounds := 3, 2
	const batch = 64
	if smoke {
		checksPerGoroutine = 256
		goroutines = []int{1, 4}
		sweeps, rounds = 1, 1
	}

	opts := activerbac.Options{FastPath: true, Clock: clock.NewSim(epoch)}
	sys, err := activerbac.Open(src, &opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer sys.Close()
	clients := benchClients(sys, spec)
	if len(clients) == 0 {
		fmt.Fprintln(os.Stderr, "bench: WIRE: no runnable clients")
		os.Exit(1)
	}

	// HTTP side: the same hot path rbacd's GET /v1/check runs (string
	// tuples into CheckAccessTuple, pre-encoded verdict body).
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	mux := http.NewServeMux()
	allowBody, denyBody := []byte("{\"allowed\":true}\n"), []byte("{\"allowed\":false}\n")
	mux.HandleFunc("GET /v1/check", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		body := denyBody
		if sys.CheckAccessTuple(q.Get("session"), q.Get("operation"), q.Get("object")) {
			body = allowBody
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	httpSrv := &http.Server{Handler: mux}
	go httpSrv.Serve(httpLn)
	defer httpSrv.Close()
	httpClient := &http.Client{Transport: &http.Transport{
		MaxIdleConns: 256, MaxIdleConnsPerHost: 256,
	}}

	// Wire side: one server, one pooled client shared by every mode.
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	wireSrv := wire.NewServer(wireSysBackend{sys}, nil)
	go wireSrv.Serve(wireLn)
	defer wireSrv.Close()
	conns := runtime.NumCPU()
	if conns > 8 {
		conns = 8
	}
	wc, err := wire.Dial(wireLn.Addr().String(), &wire.ClientOptions{
		Conns: conns, Timeout: 30 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: wire dial:", err)
		os.Exit(1)
	}
	defer wc.Close()
	// The embedded decision cache: subscribed to epoch pushes, serving
	// repeat allows locally. The workload is repeat-heavy and the policy
	// never changes mid-round, so after warmup nearly every check is a
	// local hit — the series measures the deleted round trip.
	ccache, err := clientcache.New(wireLn.Addr().String(), &clientcache.Options{
		Conns: conns, Timeout: 30 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: client cache dial:", err)
		os.Exit(1)
	}
	defer ccache.Close()
	if !ccache.Subscribed() {
		fmt.Fprintln(os.Stderr, "bench: client cache did not subscribe")
		os.Exit(1)
	}

	// Per-client prebuilt request forms; verdicts are sanity-checked once
	// so a broken transport can't win by doing nothing.
	urls := make([]string, len(clients))
	tuples := make([]wire.CheckRequest, len(clients))
	base := "http://" + httpLn.Addr().String() + "/v1/check?"
	for i, c := range clients {
		urls[i] = base + url.Values{
			"session": {string(c.sid)}, "operation": {c.perm.Operation}, "object": {c.perm.Object},
		}.Encode()
		tuples[i] = wire.CheckRequest{
			Session: string(c.sid), Operation: c.perm.Operation, Object: c.perm.Object,
		}
	}
	var errs atomic.Uint64
	httpCheck := func(u string) bool {
		resp, err := httpClient.Get(u)
		if err != nil {
			errs.Add(1)
			return false
		}
		var v struct {
			Allowed bool `json:"allowed"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if derr != nil {
			errs.Add(1)
			return false
		}
		return v.Allowed
	}
	for i := range clients {
		okW, err := wc.Check(tuples[i].Session, tuples[i].Operation, tuples[i].Object)
		if err != nil || !okW || !httpCheck(urls[i]) {
			fmt.Fprintf(os.Stderr, "bench: WIRE: transport sanity check failed for client %d (wire=%v err=%v)\n", i, okW, err)
			os.Exit(1)
		}
		okC, err := ccache.Check(tuples[i].Session, tuples[i].Operation, tuples[i].Object)
		if err != nil || !okC {
			fmt.Fprintf(os.Stderr, "bench: WIRE: cached transport sanity check failed for client %d (cached=%v err=%v)\n", i, okC, err)
			os.Exit(1)
		}
	}

	// Each round: g goroutines x perG checks over the given transport.
	round := func(transport string, g, perG int) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				u, tup := urls[i%len(urls)], tuples[i%len(tuples)]
				switch transport {
				case "http":
					for j := 0; j < perG; j++ {
						httpCheck(u)
					}
				case "wire":
					for j := 0; j < perG; j++ {
						if _, err := wc.Check(tup.Session, tup.Operation, tup.Object); err != nil {
							errs.Add(1)
						}
					}
				case "client_cached":
					for j := 0; j < perG; j++ {
						if _, err := ccache.Check(tup.Session, tup.Operation, tup.Object); err != nil {
							errs.Add(1)
						}
					}
				case "wire-batch":
					reqs := make([]wire.CheckRequest, batch)
					for k := range reqs {
						reqs[k] = tup
					}
					for done := 0; done < perG; done += batch {
						n := batch
						if left := perG - done; left < n {
							n = left
						}
						if _, err := wc.CheckMany(reqs[:n]); err != nil {
							errs.Add(1)
						}
					}
				}
			}(i)
		}
		wg.Wait()
		return time.Since(start)
	}

	transports := []string{"http", "wire", "wire-batch", "client_cached"}
	best := map[string]map[int]time.Duration{}
	for _, tr := range transports {
		best[tr] = map[int]time.Duration{}
	}
	for s := 0; s < sweeps; s++ {
		for _, g := range goroutines {
			for _, tr := range transports {
				round(tr, g, checksPerGoroutine/4+1) // warmup seeds caches and conns
			}
			for r := 0; r < rounds; r++ {
				for _, tr := range transports {
					d := round(tr, g, checksPerGoroutine)
					if b, ok := best[tr][g]; !ok || d < b {
						best[tr][g] = d
					}
				}
			}
		}
	}
	if n := errs.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "bench: WIRE: %d transport errors during rounds\n", n)
		os.Exit(1)
	}

	type point struct {
		Transport  string  `json:"transport"`
		Goroutines int     `json:"goroutines"`
		Checks     int     `json:"checks"`
		Batch      int     `json:"batch"`
		OpsPerSec  float64 `json:"ops_per_sec"`
		NsPerOp    float64 `json:"ns_per_op"`
		SpeedupX   float64 `json:"speedup_vs_http"`
	}
	var series []point
	fmt.Printf("%-13s %-12s %14s %10s %12s\n",
		"transport", "goroutines", "checks/sec", "ns/op", "vs http")
	for _, tr := range transports {
		for _, g := range goroutines {
			total := g * checksPerGoroutine
			ops := float64(total) / best[tr][g].Seconds()
			httpOps := float64(total) / best["http"][g].Seconds()
			b := 0
			if tr == "wire-batch" {
				b = batch
			}
			series = append(series, point{
				Transport: tr, Goroutines: g, Checks: total, Batch: b,
				OpsPerSec: round3(ops), NsPerOp: round3(1e9 / ops), SpeedupX: round3(ops / httpOps),
			})
			fmt.Printf("%-13s %-12d %14.0f %10.0f %11.2fx\n",
				tr, g, ops, 1e9/ops, ops/httpOps)
		}
	}
	cst := ccache.Stats()
	fmt.Printf("client cache: hits=%d misses=%d invalidations=%d epoch=%d\n",
		cst.Hits, cst.Misses, cst.Invalidations, ccache.Epoch())
	if smoke {
		fmt.Println("smoke run: BENCH_wire.json not written")
		return
	}
	data, err := json.MarshalIndent(series, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_wire.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCH_wire.json:", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_wire.json")
}

// wireSysBackend adapts a bench-owned System to the wire Backend.
type wireSysBackend struct{ sys *activerbac.System }

func (b wireSysBackend) Check(session, operation, object string) bool {
	return b.sys.CheckAccessTuple(session, operation, object)
}

func (b wireSysBackend) PolicyEpoch() uint64 { return b.sys.SnapshotEpoch() }

// PushEpoch and CheckCacheable are the epoch-push upgrades: they let a
// client.Cache subscribe and classify verdicts for local caching.
func (b wireSysBackend) PushEpoch() uint64 { return b.sys.PushEpoch() }

func (b wireSysBackend) CheckCacheable(session, operation, object string) (allowed, cacheable bool) {
	return b.sys.CheckAccessTupleCacheable(session, operation, object)
}

// wireSysBatchBackend is wireSysBackend plus the batch-native upgrade:
// CHECK_BATCH frames run one CheckAccessBatch instead of a per-tuple
// fan-out. The bench serves the same System behind both adapters to
// isolate the batch path's contribution.
type wireSysBatchBackend struct{ wireSysBackend }

var benchConvPool = sync.Pool{New: func() any { return new([]activerbac.BatchCheck) }}

func (b wireSysBatchBackend) CheckBatch(reqs []wire.CheckRequest, vs []bool) []bool {
	cp := benchConvPool.Get().(*[]activerbac.BatchCheck)
	checks := (*cp)[:0]
	for _, r := range reqs {
		checks = append(checks, activerbac.BatchCheck{Session: r.Session, Operation: r.Operation, Object: r.Object})
	}
	vs = b.sys.CheckAccessBatch(checks, vs)
	clear(checks)
	*cp = checks[:0]
	benchConvPool.Put(cp)
	return vs
}

// batchBench: the batch-native decision path against per-tuple
// evaluation, on one repeat-heavy workload whose batches cycle four
// distinct sessions.
//
// Two series:
//   - inproc: a CheckAccessTuple loop vs one CheckAccessBatch call per
//     batch, with the fast path off (every tuple runs the full cascade;
//     the batch path amortizes the per-tuple raise/wait machinery into
//     one drain crossing per batch) and on (warm cache; the batch path
//     probes the whole batch against one epoch capture).
//   - wire: CHECK_BATCH frames against the same System behind a plain
//     Backend (the server's per-tuple fan-out — the pre-batch baseline)
//     vs a BatchBackend (batch-native), fast path off.
//
// Sweeps are interleaved and the best round per point is kept, like
// WIRE/FASTPATH. Results go to BENCH_batch.json; speedups are stored as
// *_pct columns so -compare keys row identity on the workload alone.
func batchBench(smoke bool) {
	header("BATCH", "batch-native evaluation: per-tuple loop vs CheckAccessBatch, fan-out vs batch-native CHECK_BATCH")
	cfg := workload.EnterpriseConfig{
		Roles: 64, Shape: workload.XYZShape, Branch: 4,
		SSDFraction: 0.3, Users: 64, PermsPerRole: 3, Seed: 1,
	}
	spec := workload.MustEnterprise(cfg)
	src := policy.Format(spec)
	const groups = 4 // distinct sessions cycled through every batch
	sizes := []int{16, 256, 1024}
	totalChecks := 32768
	sweeps, rounds := 3, 2
	if smoke {
		sizes = []int{16, 64}
		totalChecks = 2048
		sweeps, rounds = 1, 1
	}

	type point struct {
		Series     string  `json:"series"` // inproc | wire
		Mode       string  `json:"mode"`   // per-tuple | batch | fanout | batch-native
		FastPath   string  `json:"fastpath"`
		Batch      int     `json:"batch"`
		Groups     int     `json:"groups"`
		Checks     int     `json:"checks"`
		OpsPerSec  float64 `json:"ops_per_sec"`
		NsPerOp    float64 `json:"ns_per_op"`
		SpeedupPct float64 `json:"speedup_vs_baseline_pct"`
	}
	var series []point
	fmt.Printf("%-7s %-13s %-9s %7s %14s %10s %12s\n",
		"series", "mode", "fastpath", "batch", "checks/sec", "ns/op", "speedup")
	emit := func(s, mode, fp string, batch int, d, base time.Duration) {
		ops := float64(totalChecks) / d.Seconds()
		series = append(series, point{
			Series: s, Mode: mode, FastPath: fp, Batch: batch, Groups: groups,
			Checks: totalChecks, OpsPerSec: round3(ops), NsPerOp: round3(1e9 / ops),
			SpeedupPct: round3((base.Seconds()/d.Seconds() - 1) * 100),
		})
		fmt.Printf("%-7s %-13s %-9s %7d %14.0f %10.0f %11.2fx\n",
			s, mode, fp, batch, ops, 1e9/ops, base.Seconds()/d.Seconds())
	}

	// buildChecks cycles the first `groups` clients so a batch of n
	// tuples spans `groups` sessions with n/groups tuples each.
	buildChecks := func(clients []benchClient, n int) []activerbac.BatchCheck {
		checks := make([]activerbac.BatchCheck, n)
		for i := range checks {
			c := clients[i%groups]
			checks[i] = activerbac.BatchCheck{
				Session: string(c.sid), Operation: c.perm.Operation, Object: c.perm.Object,
			}
		}
		return checks
	}

	// --- in-process series ---------------------------------------------
	for _, fp := range []bool{false, true} {
		fpName := "off"
		if fp {
			fpName = "on"
		}
		sys, err := activerbac.Open(src, &activerbac.Options{
			FastPath: fp, Clock: clock.NewSim(epoch),
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		clients := benchClients(sys, spec)
		if len(clients) < groups {
			fmt.Fprintln(os.Stderr, "bench: BATCH: not enough runnable clients")
			os.Exit(1)
		}
		perTuple := func(checks []activerbac.BatchCheck) time.Duration {
			start := time.Now()
			for done := 0; done < totalChecks; done += len(checks) {
				for _, c := range checks {
					sys.CheckAccessTuple(c.Session, c.Operation, c.Object)
				}
			}
			return time.Since(start)
		}
		batched := func(checks []activerbac.BatchCheck, buf []bool) time.Duration {
			start := time.Now()
			for done := 0; done < totalChecks; done += len(checks) {
				buf = sys.CheckAccessBatch(checks, buf[:0])
			}
			return time.Since(start)
		}
		// Sanity: the batch path must agree with the per-tuple path and
		// the workload must be an allow workload (a broken path can't win
		// by denying everything from a stale snapshot).
		sanity := buildChecks(clients, sizes[0])
		for i, v := range sys.CheckAccessBatch(sanity, nil) {
			c := sanity[i]
			if !v || v != sys.CheckAccessTuple(c.Session, c.Operation, c.Object) {
				fmt.Fprintf(os.Stderr, "bench: BATCH: sanity check failed at tuple %d (fastpath %s)\n", i, fpName)
				os.Exit(1)
			}
		}
		bestSeq, bestBatch := map[int]time.Duration{}, map[int]time.Duration{}
		for s := 0; s < sweeps; s++ {
			for _, n := range sizes {
				checks := buildChecks(clients, n)
				buf := make([]bool, 0, n)
				perTuple(checks[:min(n, totalChecks/8+1)]) // warmup
				batched(checks, buf)
				for r := 0; r < rounds; r++ {
					if d := perTuple(checks); bestSeq[n] == 0 || d < bestSeq[n] {
						bestSeq[n] = d
					}
					if d := batched(checks, buf); bestBatch[n] == 0 || d < bestBatch[n] {
						bestBatch[n] = d
					}
				}
			}
		}
		for _, n := range sizes {
			emit("inproc", "per-tuple", fpName, n, bestSeq[n], bestSeq[n])
			emit("inproc", "batch", fpName, n, bestBatch[n], bestSeq[n])
		}
		sys.Close()
	}

	// --- wire series ---------------------------------------------------
	// Fast path off: the per-tuple fan-out pays the full cascade per
	// tuple, which is exactly the cost the batch-native path amortizes.
	sys, err := activerbac.Open(src, &activerbac.Options{
		FastPath: false, Clock: clock.NewSim(epoch),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer sys.Close()
	clients := benchClients(sys, spec)
	if len(clients) < groups {
		fmt.Fprintln(os.Stderr, "bench: BATCH: not enough runnable clients")
		os.Exit(1)
	}
	dialServer := func(backend wire.Backend) (*wire.Client, func()) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		srv := wire.NewServer(backend, nil)
		go srv.Serve(ln)
		wc, err := wire.Dial(ln.Addr().String(), &wire.ClientOptions{
			Conns: 2, Timeout: 30 * time.Second,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: wire dial:", err)
			os.Exit(1)
		}
		return wc, func() { wc.Close(); srv.Close() }
	}
	fanoutClient, closeFanout := dialServer(wireSysBackend{sys})
	defer closeFanout()
	nativeClient, closeNative := dialServer(wireSysBatchBackend{wireSysBackend{sys}})
	defer closeNative()

	wireRound := func(wc *wire.Client, reqs []wire.CheckRequest) time.Duration {
		start := time.Now()
		for done := 0; done < totalChecks; done += len(reqs) {
			if _, err := wc.CheckMany(reqs); err != nil {
				fmt.Fprintln(os.Stderr, "bench: BATCH: wire:", err)
				os.Exit(1)
			}
		}
		return time.Since(start)
	}
	bestFanout, bestNative := map[int]time.Duration{}, map[int]time.Duration{}
	for s := 0; s < sweeps; s++ {
		for _, n := range sizes {
			checks := buildChecks(clients, n)
			reqs := make([]wire.CheckRequest, n)
			for i, c := range checks {
				reqs[i] = wire.CheckRequest{Session: c.Session, Operation: c.Operation, Object: c.Object}
			}
			wireRound(fanoutClient, reqs[:min(n, totalChecks/8+1)]) // warmup
			wireRound(nativeClient, reqs[:min(n, totalChecks/8+1)])
			for r := 0; r < rounds; r++ {
				if d := wireRound(fanoutClient, reqs); bestFanout[n] == 0 || d < bestFanout[n] {
					bestFanout[n] = d
				}
				if d := wireRound(nativeClient, reqs); bestNative[n] == 0 || d < bestNative[n] {
					bestNative[n] = d
				}
			}
		}
	}
	for _, n := range sizes {
		emit("wire", "fanout", "off", n, bestFanout[n], bestFanout[n])
		emit("wire", "batch-native", "off", n, bestNative[n], bestFanout[n])
	}

	// --- PR 5 comparison series ----------------------------------------
	// The committed BENCH_wire.json measured CHECK_BATCH against the
	// per-tuple fan-out server: fast path on, 64-tuple frames of one
	// repeated tuple per goroutine. Re-run that exact workload against
	// the batch-native backend and emit rows under the same identity
	// (transport/goroutines/batch), so
	//   make bench-compare OLD=BENCH_wire.json NEW=BENCH_batch.json
	// diffs this PR's CHECK_BATCH directly against the committed PR 5
	// per-tuple fan-out numbers.
	type wirePoint struct {
		Transport  string  `json:"transport"`
		Goroutines int     `json:"goroutines"`
		Checks     int     `json:"checks"`
		Batch      int     `json:"batch"`
		OpsPerSec  float64 `json:"ops_per_sec"`
		NsPerOp    float64 `json:"ns_per_op"`
	}
	cmpSys, err := activerbac.Open(src, &activerbac.Options{
		FastPath: true, Clock: clock.NewSim(epoch),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	defer cmpSys.Close()
	cmpClients := benchClients(cmpSys, spec)
	if len(cmpClients) == 0 {
		fmt.Fprintln(os.Stderr, "bench: BATCH: no runnable comparison clients")
		os.Exit(1)
	}
	cmpClient, closeCmp := dialServer(wireSysBatchBackend{wireSysBackend{cmpSys}})
	defer closeCmp()
	const cmpBatch = 64
	cmpGoroutines := []int{1, 4, 16, 64}
	cmpPerG := 4096
	if smoke {
		cmpGoroutines = []int{1, 4}
		cmpPerG = 256
	}
	cmpTuples := make([]wire.CheckRequest, len(cmpClients))
	for i, c := range cmpClients {
		cmpTuples[i] = wire.CheckRequest{
			Session: string(c.sid), Operation: c.perm.Operation, Object: c.perm.Object,
		}
	}
	if vs, err := cmpClient.CheckMany(cmpTuples[:1]); err != nil || len(vs) != 1 || !vs[0] {
		fmt.Fprintf(os.Stderr, "bench: BATCH: comparison sanity check failed (vs=%v err=%v)\n", vs, err)
		os.Exit(1)
	}
	cmpRound := func(g, perG int) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tup := cmpTuples[i%len(cmpTuples)]
				reqs := make([]wire.CheckRequest, cmpBatch)
				for k := range reqs {
					reqs[k] = tup
				}
				for done := 0; done < perG; done += cmpBatch {
					n := cmpBatch
					if left := perG - done; left < n {
						n = left
					}
					if _, err := cmpClient.CheckMany(reqs[:n]); err != nil {
						fmt.Fprintln(os.Stderr, "bench: BATCH: wire-batch:", err)
						os.Exit(1)
					}
				}
			}(i)
		}
		wg.Wait()
		return time.Since(start)
	}
	bestCmp := map[int]time.Duration{}
	for s := 0; s < sweeps; s++ {
		for _, g := range cmpGoroutines {
			cmpRound(g, cmpPerG/4+1) // warmup seeds caches and conns
			for r := 0; r < rounds; r++ {
				if d := cmpRound(g, cmpPerG); bestCmp[g] == 0 || d < bestCmp[g] {
					bestCmp[g] = d
				}
			}
		}
	}
	var compat []wirePoint
	fmt.Println("-- PR 5 comparison series (wire-batch identity, fast path on):",
		"diff with make bench-compare OLD=BENCH_wire.json NEW=BENCH_batch.json")
	fmt.Printf("%-11s %-12s %14s %10s\n", "transport", "goroutines", "checks/sec", "ns/op")
	for _, g := range cmpGoroutines {
		total := g * cmpPerG
		ops := float64(total) / bestCmp[g].Seconds()
		compat = append(compat, wirePoint{
			Transport: "wire-batch", Goroutines: g, Checks: total, Batch: cmpBatch,
			OpsPerSec: round3(ops), NsPerOp: round3(1e9 / ops),
		})
		fmt.Printf("%-11s %-12d %14.0f %10.0f\n", "wire-batch", g, ops, 1e9/ops)
	}

	if smoke {
		fmt.Println("smoke run: BENCH_batch.json not written")
		return
	}
	rows := make([]any, 0, len(series)+len(compat))
	for _, p := range series {
		rows = append(rows, p)
	}
	for _, p := range compat {
		rows = append(rows, p)
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err == nil {
		err = os.WriteFile("BENCH_batch.json", append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCH_batch.json:", err)
		os.Exit(1)
	}
	fmt.Println("wrote BENCH_batch.json")
}

// compareSeries prints a benchstat-style delta between two benchmark
// JSON series files (any of the BENCH_*.json series; old and new need
// not come from the same experiment version). Rows are matched on every
// identity field (mode, goroutines, ...) and each measurement column present in both
// files is compared; the delta printed is new/old-1, so for ops_per_sec
// positive is faster while for the per-op columns negative is leaner.
func compareSeries(oldPath, newPath string) error {
	load := func(path string) ([]map[string]any, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rows []map[string]any
		if err := json.Unmarshal(data, &rows); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return rows, nil
	}
	oldRows, err := load(oldPath)
	if err != nil {
		return err
	}
	newRows, err := load(newPath)
	if err != nil {
		return err
	}
	compared := []string{"ops_per_sec", "ns_per_op", "b_per_op", "allocs_per_op"}
	// Measurement and derived columns never participate in row identity;
	// checks varies with round sizing and the *_pct / speedup_vs_*
	// columns are already relative to a same-file baseline (a derived
	// float in the identity would make rows unmatchable across runs).
	isMetric := func(k string) bool {
		if k == "checks" || strings.HasSuffix(k, "_pct") || strings.HasPrefix(k, "speedup_vs_") {
			return true
		}
		for _, m := range compared {
			if k == m {
				return true
			}
		}
		return false
	}
	keyOf := func(row map[string]any) string {
		keys := make([]string, 0, len(row))
		for k := range row {
			if !isMetric(k) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%v", k, row[k]))
		}
		return strings.Join(parts, " ")
	}
	oldByKey := map[string]map[string]any{}
	for _, row := range oldRows {
		oldByKey[keyOf(row)] = row
	}
	fmt.Printf("%-40s %-14s %14s %14s %9s\n", "series point", "metric", "old", "new", "delta")
	matched := 0
	for _, row := range newRows {
		key := keyOf(row)
		old, ok := oldByKey[key]
		if !ok {
			continue
		}
		matched++
		for _, m := range compared {
			ov, okOld := old[m].(float64)
			nv, okNew := row[m].(float64)
			if !okOld || !okNew || ov == 0 {
				continue
			}
			fmt.Printf("%-40s %-14s %14.1f %14.1f %+8.1f%%\n", key, m, ov, nv, (nv/ov-1)*100)
		}
	}
	if matched == 0 {
		return fmt.Errorf("no matching series points between %s and %s", oldPath, newPath)
	}
	return nil
}

// e2: operator detection throughput.
func e2() {
	header("E2", "composite event detection cost per operator and consumption mode")
	fmt.Printf("%-10s %10s %10s %10s %10s  (ns/op)\n", "operator", "recent", "chronicle", "continuous", "cumulative")
	ops := []struct{ name, expr string }{
		{"SEQ", "SEQ(a, b)"}, {"AND", "AND(a, b)"}, {"OR", "OR(a, b)"},
		{"NOT", "NOT(a, x, b)"}, {"APERIODIC", "APERIODIC(a, b, x)"},
	}
	for _, op := range ops {
		row := make([]float64, 0, 4)
		for _, mode := range []event.Mode{event.Recent, event.Chronicle, event.Continuous, event.Cumulative} {
			row = append(row, nsPerOp(func(b *testing.B) {
				sim := clock.NewSim(epoch)
				det := event.New(sim)
				det.MustPrimitive("a")
				det.MustPrimitive("b")
				det.MustPrimitive("x")
				det.MustDefine("c", event.WithMode(event.MustParse(op.expr), mode))
				if _, err := det.Subscribe("c", func(*event.Occurrence) {}); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sim.Advance(time.Second)
					// Balanced stream keeps buffers bounded (steady
					// state) across the accumulating modes.
					switch i % 3 {
					case 0:
						det.MustRaise("a", nil)
					case 1:
						det.MustRaise("b", nil)
					default:
						det.MustRaise("x", nil)
					}
				}
			}))
		}
		fmt.Printf("%-10s %10.0f %10.0f %10.0f %10.0f\n", op.name, row[0], row[1], row[2], row[3])
	}
}

// e3: rule generation vs enterprise size.
func e3() {
	header("E3", "rule generation time and pool size vs enterprise size")
	fmt.Printf("%-8s %-6s %10s %12s\n", "roles", "ssd", "rules", "gen time")
	for _, roles := range []int{10, 50, 100, 400} {
		for _, ssd := range []float64{0, 0.3} {
			cfg := workload.EnterpriseConfig{
				Roles: roles, Shape: workload.XYZShape, Branch: 8,
				SSDFraction: ssd, Users: roles, PermsPerRole: 2, Seed: 4,
			}
			src := policy.Format(workload.MustEnterprise(cfg))
			sys := open(src)
			rules := len(sys.Rules())
			sys.Close()
			ns := nsPerOp(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := open(src)
					s.Close()
				}
			})
			fmt.Printf("%-8d %-6.1f %10d %10.2fms\n", roles, ssd, rules, ns/1e6)
		}
	}
}

// e4: regeneration cost, incremental vs full rebuild.
func e4() {
	header("E4", "policy-change cost: incremental regeneration vs full rebuild (shift change on 1 role)")
	fmt.Printf("%-8s %12s %12s %8s %14s\n", "roles", "incr", "full", "speedup", "roles touched")
	for _, roles := range []int{10, 100, 400} {
		cfg := workload.EnterpriseConfig{
			Roles: roles, Shape: workload.XYZShape, Branch: 8,
			SSDFraction: 0.3, Users: roles, PermsPerRole: 2, Seed: 4,
		}
		base := policy.Format(workload.MustEnterprise(cfg))
		v1 := base + "shift r001 08:00:00-16:00:00\n"
		v2 := base + "shift r001 09:00:00-17:00:00\n"
		var touched int
		incr := nsPerOp(func(b *testing.B) {
			sys := open(v1)
			defer sys.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := v2
				if i%2 == 1 {
					next = v1
				}
				rep, err := sys.ApplyPolicy(next)
				if err != nil {
					b.Fatal(err)
				}
				touched = rep.Touched()
			}
		})
		full := nsPerOp(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src := v2
				if i%2 == 1 {
					src = v1
				}
				s := open(src)
				s.Close()
			}
		})
		fmt.Printf("%-8d %10.2fms %10.2fms %7.1fx %8d of %d\n",
			roles, incr/1e6, full/1e6, full/incr, touched, roles)
	}
}

// e5: active security detection timeliness and overhead.
func e5() {
	header("E5", "active security: detection timeliness and monitor overhead")
	// Timeliness: the alert fires on exactly the k-th denial.
	sim := clock.NewSim(epoch)
	mon := security.NewMonitor(sim)
	_ = mon.AddThreshold("burst", 5, 10*time.Minute, "lock-user")
	var firedAt int
	for i := 1; i <= 10 && firedAt == 0; i++ {
		sim.Advance(time.Second)
		if len(mon.RecordDenial("mallory")) > 0 {
			firedAt = i
		}
	}
	fmt.Printf("threshold k=5 fired on denial #%d (want exactly 5)\n", firedAt)
	fmt.Printf("%-14s %12s\n", "thresholds", "ns/denial")
	for _, n := range []int{0, 1, 8, 64} {
		ns := nsPerOp(func(b *testing.B) {
			s := clock.NewSim(epoch)
			m := security.NewMonitor(s)
			for i := 0; i < n; i++ {
				_ = m.AddThreshold(fmt.Sprintf("t%d", i), 1000, time.Minute, "alert")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Advance(time.Millisecond)
				m.RecordDenial(fmt.Sprintf("u%d", i%32))
			}
		})
		fmt.Printf("%-14d %12.0f\n", n, ns)
	}
}

// e6: activation throughput per AAR variant.
func e6() {
	header("E6", "activation cost per AAR rule variant (Rules 3-4)")
	variants := []struct{ name, src, role string }{
		{"AAR1 core", "role R\nuser u: R\n", "R"},
		{"AAR2 hierarchy", "role Top\nrole R\nhierarchy Top > R\nuser u: Top\n", "R"},
		{"AAR3 dsd", "role R\nrole S\ndsd d 2: R, S\nuser u: R\n", "R"},
		{"AAR4 dsd+hier", "role Top\nrole R\nrole S\nhierarchy Top > R\ndsd d 2: R, S\nuser u: Top\n", "R"},
		{"+cardinality", "role R\nuser u: R\ncardinality R 5\n", "R"},
	}
	fmt.Printf("%-16s %14s\n", "variant", "ns/act+deact")
	for _, v := range variants {
		ns := nsPerOp(func(b *testing.B) {
			sys := open(v.src)
			defer sys.Close()
			sid, err := sys.CreateSession("u")
			if err != nil {
				b.Fatal(err)
			}
			role := activerbac.RoleID(v.role)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.AddActiveRole("u", sid, role); err != nil {
					b.Fatal(err)
				}
				if err := sys.DropActiveRole("u", sid, role); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Printf("%-16s %14.0f\n", v.name, ns)
	}
}

// e7: temporal machinery in simulated time.
func e7() {
	header("E7", "temporal constraints under simulated time (Rules 6-7)")
	// Correctness: a 2h duration bound in a simulated day.
	src := "role Nurse\nuser n: Nurse\nduration * Nurse 2h\n"
	sim := clock.NewSim(epoch)
	sys, err := activerbac.Open(src, &activerbac.Options{Clock: sim})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	sid, _ := sys.CreateSession("n")
	_ = sys.AddActiveRole("n", sid, "Nurse")
	sim.Advance(2*time.Hour + time.Second)
	roles, _ := sys.SessionRoles(sid)
	fmt.Printf("duration bound: active roles after 2h+1s = %d (want 0)\n", len(roles))
	sys.Close()

	fmt.Printf("%-16s %14s\n", "pending timers", "ns/act+deact")
	for _, pending := range []int{100, 1000, 10000} {
		ns := nsPerOp(func(b *testing.B) {
			policySrc := "role R\nduration * R 1h\n"
			for i := 0; i < pending; i++ {
				policySrc += fmt.Sprintf("user u%04d: R\n", i)
			}
			s := open(policySrc)
			defer s.Close()
			for i := 0; i < pending; i++ {
				u := activerbac.UserID(fmt.Sprintf("u%04d", i))
				sid, err := s.CreateSession(u)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.AddActiveRole(u, sid, "R"); err != nil {
					b.Fatal(err)
				}
			}
			sid, err := s.CreateSession("u0000")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.AddActiveRole("u0000", sid, "R"); err != nil {
					b.Fatal(err)
				}
				if err := s.DropActiveRole("u0000", sid, "R"); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Printf("%-16d %14.0f\n", pending, ns)
	}
}

// e8: CFD coupling overhead.
func e8() {
	header("E8", "control-flow dependency coupling (Rule 8): enable/disable round trip")
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"coupled", "role A\nrole B\ncouple A -> B\n"},
		{"uncoupled", "role A\nrole B\n"},
	} {
		ns := nsPerOp(func(b *testing.B) {
			sys := open(tc.src)
			defer sys.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.DisableRole("B"); err != nil {
					b.Fatal(err)
				}
				if err := sys.EnableRole("A"); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Printf("%-12s %12.0f ns/op\n", tc.name, ns)
	}
	// Correctness: both-or-neither invariant.
	sys := open("role SysAdmin\nrole SysAudit\ncouple SysAdmin -> SysAudit\n")
	defer sys.Close()
	_ = sys.DisableRole("SysAudit")
	fmt.Printf("after disabling SysAudit: SysAdmin enabled = %v (want false)\n",
		sys.RoleEnabled("SysAdmin"))
}

// e9: the conformance matrix (Section 6 comparisons as executable
// claims).
func e9() {
	header("E9", "feature conformance matrix (paper Section 6 comparisons)")
	fmt.Printf("%-58s %-9s %s\n", "feature", "status", "systems lacking it (per paper)")
	for _, f := range conformance.Matrix() {
		status := "PASS"
		if !f.Supported {
			status = "FAIL: " + f.Detail
		}
		fmt.Printf("%-58s %-9s %s\n", f.Name, status, f.MissingIn)
	}
}
