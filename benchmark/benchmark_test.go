package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"
)

// testScale is small enough that all four workloads, both passes, fit
// in a few seconds.
var testScale = scale{
	small: tiny, large: tiny, fleet: tiny,
	hotSessions: 16, coldSessions: 32, churnIdle: 16, fleetSessions: 16,
	rateHot: 2000, rateReload: 1000,
	warmup: 50 * time.Millisecond, micro: 2 * time.Millisecond,
}

// The server binary is built once for all tests of the package.
var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

func testRunner(t *testing.T) *runner {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rbacd-bench-test")
		if err != nil {
			buildErr = err
			return
		}
		builtBin, buildErr = buildServer("..", dir)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	r := &runner{bin: builtBin, outDir: t.TempDir(), sc: testScale, seed: 7}
	t.Cleanup(r.killAll)
	return r
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtBin != "" {
		os.Remove(builtBin)
	}
	os.Exit(code)
}

// TestSmoke runs both passes of every workload for one second on the
// tiny enterprise: every named metric is present and finite, every
// verdict matches the oracle, nothing fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rbacd children")
	}
	for _, def := range workloads {
		r := testRunner(t)
		e2e, err := r.runE2E(def, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		traced, err := r.runTraced(def, time.Second)
		if err != nil {
			t.Fatalf("%s traced: %v", def.name, err)
		}
		for _, pass := range []struct {
			res   *result
			names []string
		}{{e2e, endToEndNames}, {traced, perLayerNames}} {
			if !pass.res.Correct {
				t.Errorf("%s: gates failed: %v", def.name, pass.res.Gates)
			}
			if pass.res.Attempted < 1 || pass.res.Decided < 1 {
				t.Errorf("%s: attempted %d, decided %d", def.name, pass.res.Attempted, pass.res.Decided)
			}
			if len(pass.res.Metrics) != len(pass.names) {
				t.Errorf("%s: %d metrics reported, catalogue has %d", def.name, len(pass.res.Metrics), len(pass.names))
			}
			for _, name := range pass.names {
				m, ok := pass.res.Metrics[name]
				if !ok {
					t.Errorf("%s: metric %s missing", def.name, name)
				} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s: metric %s = %v %q", def.name, name, m.Value, m.Unit)
				}
			}
		}
		for _, name := range endToEndNames {
			if e2e.Metrics[name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", def.name, name, e2e.Metrics[name].Value)
			}
		}
		if _, err := os.Stat(r.outDir + "/trace-" + def.name + ".json"); err != nil {
			t.Errorf("%s: span file: %v", def.name, err)
		}
	}
}

// TestFailedRunLeavesNothingBehind kills the server under a run and
// checks that the run fails, that no child process survives, and that
// the generator's goroutines are gone.
func TestFailedRunLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rbacd children")
	}
	r := testRunner(t)
	httpClient.CloseIdleConnections()
	before := runtime.NumGoroutine()
	var pids []int
	def := workloads[0]
	openHot := def.open
	def.open = func(r *runner, p *plan, dep *deployment) (liveWorkload, error) {
		w, err := openHot(r, p, dep)
		if err != nil {
			return nil, err
		}
		// The generator is connected; now the server dies on its own.
		if err := syscall.Kill(dep.leader.cmd.Process.Pid, syscall.SIGKILL); err != nil {
			t.Error(err)
		}
		<-dep.leader.exited
		return w, nil
	}
	res, err := r.runE2E(def, time.Second)
	if err == nil && res.Correct {
		t.Fatal("a run whose server was killed reported success")
	}
	r.mu.Lock()
	for _, c := range r.children {
		pids = append(pids, c.cmd.Process.Pid)
	}
	r.mu.Unlock()
	if len(pids) != setupRepeats {
		t.Errorf("runner tracked %d children, want %d", len(pids), setupRepeats)
	}
	r.killAll()
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("child %d still exists: %v", pid, err)
		}
	}
	httpClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the run, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestOpenLoopTimesFromDueTime stalls one request of an open loop and
// expects the stall in the latency of the requests queued behind it:
// latency runs from when a request was due, not from when it was sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	res, err := openLoop(1000, 200*time.Millisecond, 1, func(i int64) (int64, int64, error) {
		if i == 10 {
			time.Sleep(stall)
		}
		return 1, 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 200 || res.failed != 0 || len(res.late) != 200 || res.scheduled != 200 {
		t.Fatalf("attempted %d, failed %d, sent %d of %d; want 200, 0, 200 of 200", res.attempted, res.failed, len(res.late), res.scheduled)
	}
	// With one worker, every request due during the stall waits for it.
	// Requests fall due in bursts of openBurst every 8 ms, so about
	// stall/1ms of them are due before the stall ends; the later ones
	// see less of it, hence the generous margins.
	delayed := 0
	var worst time.Duration
	for _, s := range res.samples {
		if s.lat >= stall/5 {
			delayed++
		}
		if s.lat > worst {
			worst = s.lat
		}
	}
	if delayed < 20 {
		t.Errorf("%d requests saw at least %v of latency; a %v stall should have delayed at least 20", delayed, stall/5, stall)
	}
	if worst < stall*8/10 {
		t.Errorf("worst latency %v, want the %v stall to show in full", worst, stall)
	}
	// How late a request left the generator is reported separately.
	if late := res.late[len(res.late)-1]; late < 0 {
		t.Errorf("negative lateness %v: a request left before it was due", late)
	}
}

func TestQuantilesMergeAndSpread(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {0.999, 100}, {1, 100}, {0, 1}} {
		if got := quantile(sorted, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d, want 0", got)
	}

	// merge puts slice i's latency samples into window i of the run and
	// adds up what the slices counted.
	total := &measured{}
	for i := 0; i < 3; i++ {
		m := &measured{checks: 10, closedFor: time.Second, latencyPhase: time.Second, elapsed: 2 * time.Second,
			latency: []sample{{at: 100 * time.Millisecond, lat: time.Duration(i+1) * time.Millisecond}},
			writes:  []sample{{at: 500 * time.Millisecond, lat: time.Millisecond}},
			late:    []time.Duration{time.Microsecond}, scheduled: 2}
		m.attempted, m.decided = 5, 10
		total.merge(m, i)
	}
	if total.checks != 30 || total.closedFor != 3*time.Second || total.attempted != 15 || total.latencyPhase != 3*time.Second {
		t.Errorf("merged totals: %+v", total)
	}
	for i, sm := range total.latency {
		if want := time.Duration(i)*time.Second + 100*time.Millisecond; sm.at != want {
			t.Errorf("latency sample %d at %v, want %v", i, sm.at, want)
		}
	}
	if at := total.writes[2].at; at != 4*time.Second+500*time.Millisecond {
		t.Errorf("third slice's write at %v, want 4.5s", at)
	}
	if got := total.sentShare(); got != 0.5 {
		t.Errorf("sent share %v, want 0.5", got)
	}

	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([10, 12, 11], n=4) is [10, 11, 12].
	if got := spread([]float64{10, 12, 11}); math.Abs(got-2.0/11) > 1e-12 {
		t.Errorf("spread(10, 12, 11) = %v, want 2/11", got)
	}
}

// TestBenchmarkFile holds BENCHMARK.json to the catalogue in this
// package and to the limits the driver refuses a file for.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var bf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEndNames) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(bf.EndToEnd), len(endToEndNames))
	}
	hasSetup := false
	for i, e := range bf.EndToEnd {
		checkName(e.Name)
		if e.Name != endToEndNames[i] {
			t.Errorf("end-to-end metric %d: %q in BENCHMARK.json, %q in the catalogue", i, e.Name, endToEndNames[i])
		}
		if !unit.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q better %q bound %v", e.Name, e.Unit, e.Better, e.Bound)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if len(bf.PerLayer) != len(perLayerNames) || len(bf.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue, limit 128", len(bf.PerLayer), len(perLayerNames))
	}
	for i, e := range bf.PerLayer {
		checkName(e.Name)
		if e.Name != perLayerNames[i] {
			t.Errorf("per-layer metric %d: %q in BENCHMARK.json, %q in the catalogue", i, e.Name, perLayerNames[i])
		}
		if e.Unit != unitOf(e.Name) || !unit.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("per-layer metric %s: unit %q (the name implies %q) better %q", e.Name, e.Unit, unitOf(e.Name), e.Better)
		}
	}
}
