package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"activerbac/internal/wire"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
}

// runRepeat is the repeatability self-check: n untraced runs of every
// workload on consecutive seeds, then each end-to-end metric's spread —
// the distance between its quartiles as a share of its median, the
// driver's own measure — against the bound BENCHMARK.json gives it.
func runRepeat(r *runner, defs []workloadDef, n int, seconds time.Duration) int {
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json:", err)
		return 1
	}
	firstSeed := r.seed
	code := 0
	type row struct {
		Workload, Metric string
		Median, Spread   float64
		Bound            float64
		Values           []float64
	}
	var rows []row
	for _, def := range defs {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			r.seed = firstSeed + int64(i)
			res, err := r.runE2E(def, seconds)
			r.killAll()
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", def.name, r.seed, err)
				return 1
			}
			if !res.Correct {
				printResult(res)
				code = 1
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			for name, m := range res.Info {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, e := range bf.EndToEnd {
			vs := values[e.Name]
			sp := spread(vs)
			verdict := "ok"
			switch {
			case e.Name == "setup_s":
				verdict = "not gated on spread"
			case sp > e.Bound:
				verdict = "EXCEEDS BOUND"
				code = 1
			case sp > e.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Printf("%s %s median %.6g spread %.3f bound %.2f n %d %s\n", def.name, e.Name, medianFloat(vs), sp, e.Bound, len(vs), verdict)
			rows = append(rows, row{def.name, e.Name, medianFloat(vs), sp, e.Bound, vs})
			delete(values, e.Name)
		}
		// The rest is informational and has no bound.
		for _, name := range sortedKeys(values) {
			vs := values[name]
			fmt.Printf("%s %s median %.6g spread %.3f n %d informational\n", def.name, name, medianFloat(vs), spread(vs), len(vs))
		}
	}
	if err := writeJSON(filepath.Join(r.outDir, "repeat.json"), rows); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// runProbe runs an opt-in reproduction that is deliberately not part of
// any workload, so the baseline stays clean while the defect stays one
// command away.
func runProbe(r *runner, name string) int {
	if name != "multi_session_batch" {
		fmt.Fprintf(os.Stderr, "benchmark: unknown probe %q\n", name)
		return 1
	}
	verdict, err := probeMultiSessionBatch(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("multi_session_batch:", verdict)
	return 0
}

// probeMultiSessionBatch sends a throwaway server 256-tuple batches
// that each span at least 64 sessions. With two or more lanes the seed
// dies of "concurrent map writes" in sentinel.(*batchState).boxed.
func probeMultiSessionBatch(r *runner) (string, error) {
	p, err := newPlan(r.sc.small, 256, r.seed)
	if err != nil {
		return "", err
	}
	dep, err := r.setUp(p, false)
	if err != nil {
		return "", err
	}
	defer dep.close()
	cl, err := wire.Dial(dep.leader.wireAddr, nil)
	if err != nil {
		return "", err
	}
	defer cl.Close()
	lanes := lanesOf(dep.leader)
	rng := rand.New(rand.NewSource(r.seed))
	reqs := make([]wire.CheckRequest, batchTuples)
	for frame := 0; frame < 200; frame++ {
		for i := range reqs {
			t := p.allowTuple(rng, p.probes[(frame+i)%len(p.probes)])
			reqs[i] = wire.CheckRequest{Session: t.s.sid, Operation: t.perm.Operation, Object: t.perm.Object}
		}
		if _, err := cl.CheckMany(reqs); err != nil || !dep.leader.alive() {
			time.Sleep(100 * time.Millisecond) // let the exit be reaped
			if !dep.leader.alive() {
				return fmt.Sprintf("server died on frame %d (lanes resolved to %d): %s", frame+1, lanes, dep.leader.fatalLine()), nil
			}
			return "", err
		}
	}
	return fmt.Sprintf("ok (200 frames, lanes resolved to %d)", lanes), nil
}
