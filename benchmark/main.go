// Command benchmark is the repository's one yardstick: it builds and
// spawns real rbacd processes, drives them over the wire protocol and
// HTTP from this one process, checks every verdict against an oracle
// (internal/baseline) and prints end-to-end metrics — or, with
// -trace 1, per-layer metrics from a traced pass and from timed calls
// into each layer's public functions. README.md has the catalogue.
//
//	go run ./benchmark -workload hot_wire -seed 1 -seconds 10 -trace 0
//	go run ./benchmark                      # all four workloads, both passes
//	go run ./benchmark -repeat 10           # spread of every end-to-end metric
//	go run ./benchmark -probe multi_session_batch
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: hot_wire, cold_batch, churn_mixed or reload_fleet (default: all)")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Int("seconds", 10, "measured seconds per run")
		trace        = flag.String("trace", "", "0: end-to-end metrics; 1: per-layer metrics from the traced run (default: both)")
		repeat       = flag.Int("repeat", 0, "run this many untraced sets on consecutive seeds and print each metric's spread against its bound")
		probe        = flag.String("probe", "", "run an opt-in probe instead of the benchmark: multi_session_batch")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for the server binary, logs, traces and result.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds < 1 {
		fail(fmt.Errorf("-seconds must be at least 1"))
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	defs := workloads
	if *workloadName != "" {
		def, ok := findWorkload(*workloadName)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		defs = []workloadDef{def}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	bin, err := buildServer(".", *outDir) // the contract starts the benchmark at the module root
	if err != nil {
		fail(err)
	}
	runtime.GOMAXPROCS(generatorProcs())
	r := &runner{bin: bin, outDir: *outDir, sc: reference, seed: *seed}
	// Children die with the benchmark on every path out: normal return,
	// failure, and a signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		r.killAll()
		os.Exit(1)
	}()
	code := run(r, defs, *trace, *probe, *repeat, time.Duration(*seconds)*time.Second)
	r.killAll()
	os.Exit(code)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func run(r *runner, defs []workloadDef, trace, probe string, repeat int, seconds time.Duration) int {
	switch {
	case probe != "":
		return runProbe(r, probe)
	case repeat > 0:
		return runRepeat(r, defs, repeat, seconds)
	}
	meta := collectMeta(r)
	var results []*result
	ok := true
	for _, def := range defs {
		for _, traced := range []bool{false, true} {
			if (trace == "0" && traced) || (trace == "1" && !traced) {
				continue
			}
			var res *result
			var err error
			if traced {
				res, err = r.runTraced(def, seconds)
			} else {
				res, err = r.runE2E(def, seconds)
			}
			r.killAll()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", def.name, err)
				return 1
			}
			printResult(res)
			results = append(results, res)
			ok = ok && res.Correct
		}
	}
	if err := writeJSON(filepath.Join(r.outDir, "result.json"), map[string]any{"meta": meta, "results": results}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// The contract's result line is the last run's; the driver always
	// asks for exactly one workload and one pass.
	printContractLine(results[len(results)-1])
	if !ok {
		return 1
	}
	return 0
}

// printResult lists `workload metric value unit n` for every metric.
func printResult(res *result) {
	pass := "end-to-end"
	if res.Traced {
		pass = "per-layer"
	}
	fmt.Printf("# %s seed %d, %s: attempted %d, failed %d, verdicts %d, wrong %d\n",
		res.Workload, res.Seed, pass, res.Attempted, res.Failed, res.Decided, res.Wrong)
	for _, group := range []map[string]metric{res.Metrics, res.Info} {
		for _, name := range sortedKeys(group) {
			m := group[name]
			note := ""
			if m.Derived {
				note = " derived"
			}
			fmt.Printf("%s %s %.6g %s %d%s\n", res.Workload, name, m.Value, m.Unit, m.N, note)
		}
	}
	for _, g := range res.Gates {
		fmt.Printf("%s GATE FAILED: %s\n", res.Workload, g)
	}
}

func printContractLine(res *result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for name, m := range res.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// collectMeta records the host and build the numbers came from.
func collectMeta(r *runner) map[string]any {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	loadavg := "unknown"
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		loadavg = strings.TrimSpace(string(data))
	}
	return map[string]any{
		"commit": commit, "go": runtime.Version(), "os": runtime.GOOS + "/" + runtime.GOARCH,
		"cpus": runtime.NumCPU(), "gomaxprocs_gen": generatorProcs(),
		"gomaxprocs_srv": runtime.NumCPU(), // children run unpinned
		"lanes":          runtime.NumCPU(), // -lanes 0 resolves to one per CPU
		"seed":           r.seed, "loadavg_before": loadavg,
		"deployment": strings.Join(deploymentFlags, " "),
		"rate_hot":   r.sc.rateHot, "rate_reload": r.sc.rateReload,
	}
}
