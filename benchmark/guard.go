package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// hostGuard keeps the benchmark from measuring while the host itself is
// disturbed. On a shared host the CPU this process gets slows down by
// 15–45 % for tens of seconds at a time when a neighbour gets busy; a
// fixed piece of pure computation shows it at once (README.md has the
// trace). Such an episode is longer than a run, so no statistic inside
// a run can average it away, and it moves every timing of every
// workload together. The guard times that fixed computation before and
// after every measured slice, waits while it runs slow, and discards a
// slice that ended slow — within a time budget, after which the run
// measures whatever the host gives it. What it waited and discarded is
// reported with the results. The reference computation shares nothing
// with the repository's code, so the guard cannot favour one commit
// over another.
type hostGuard struct {
	// ref is the fastest calibration known: the host undisturbed.
	ref time.Duration
	// budget is the wall-clock time this run may still spend waiting for
	// the host or on slices it then discards.
	budget time.Duration
	// sawCalm records whether any calibration of this run came within
	// tolerance of ref; a stored ref no run can reach is stale.
	sawCalm bool
	fastest time.Duration // of this run
	path    string

	waited    time.Duration
	discarded int
	buf       []uint64
}

const (
	// guardTolerance is how far above the reference a calibration may be
	// and still count as calm. Undisturbed, the reference host stays
	// within 6 % of its fastest; disturbed, it is 15 % and more above.
	guardTolerance = 1.08
	// guardBudget bounds what one run may lose to the host.
	guardBudget = 10 * time.Second
	guardPoll   = 30 * time.Millisecond
	guardStreak = 3
	// guardSettle is how long a slow calibration may last before the
	// host counts as disturbed.
	guardSettle = 600 * time.Millisecond
)

// newHostGuard reads the reference an earlier run in this checkout left
// in dir, if any. A zero budget disables waiting and discarding.
func newHostGuard(dir string, budget time.Duration) *hostGuard {
	g := &hostGuard{budget: budget, path: filepath.Join(dir, "host-calibration"), buf: make([]uint64, 16<<10)}
	if data, err := os.ReadFile(g.path); err == nil {
		if ns, err := strconv.ParseInt(strings.TrimSpace(string(data)), 10, 64); err == nil && ns > 0 {
			g.ref = time.Duration(ns)
		}
	}
	return g
}

// guardSink keeps the compiler from dropping the calibration loop.
var guardSink uint64

// calibrate times a fixed computation — FNV over a 128 KB buffer, forty
// times, about a millisecond — and returns the fastest of three.
func (g *hostGuard) calibrate() time.Duration {
	best := time.Duration(1<<63 - 1)
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		h := uint64(14695981039346656037)
		for round := 0; round < 40; round++ {
			for i, v := range g.buf {
				h = (h ^ v) * 1099511628211
				g.buf[i] = h
			}
		}
		guardSink += h
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	if g.fastest == 0 || best < g.fastest {
		g.fastest = best
	}
	if g.ref == 0 || best < g.ref {
		g.ref = best
	}
	return best
}

// calm reports whether the host runs the calibration at its usual
// speed: guardStreak fast readings in a row. One fast reading proves
// little, because a disturbed host is erratic, not uniformly slow; and
// one slow reading proves little, because the benchmark's own children
// slow the calibration for as long as one of them compiles a policy.
// That is over in a fraction of a second, a neighbour's episode lasts
// tens of seconds, so readings are taken for up to guardSettle.
func (g *hostGuard) calm() bool {
	streak := 0
	for spent := time.Duration(0); ; spent += guardPoll {
		if float64(g.calibrate()) <= float64(g.ref)*guardTolerance {
			if streak++; streak == guardStreak {
				g.sawCalm = true
				return true
			}
		} else {
			streak = 0
		}
		if spent >= guardSettle || g.budget <= 0 {
			return false
		}
		time.Sleep(guardPoll)
		g.budget -= guardPoll
		g.waited += guardPoll
	}
}

// awaitCalm waits, within the budget, until the host is calm.
func (g *hostGuard) awaitCalm() {
	for g.budget > 0 && !g.calm() {
	}
}

// discard reports whether a slice that took d should be thrown away
// because the host was disturbed when it ended, and charges the budget
// for it. With the budget spent, nothing is discarded any more.
func (g *hostGuard) discard(d time.Duration) bool {
	if g.budget <= 0 || g.calm() {
		return false
	}
	g.budget -= d
	g.discarded++
	return true
}

// report adds what the guard saw and did to a result's informational
// numbers.
func (g *hostGuard) report(res *result) {
	res.Info["host.calibration_us"] = metric{Value: us(g.fastest), Unit: "us"}
	res.Info["host.reference_us"] = metric{Value: us(g.ref), Unit: "us"}
	res.Info["host.waited_s"] = metric{Value: g.waited.Seconds(), Unit: "s"}
	res.Info["host.discarded_slices"] = metric{Value: float64(g.discarded), Unit: "count"}
}

// save leaves the reference for the next run in this checkout. A run
// that never came near the stored reference replaces it with its own
// fastest: the stored one belongs to another host or another day.
func (g *hostGuard) save() {
	ref := g.ref
	if !g.sawCalm && g.fastest > 0 {
		ref = g.fastest
	}
	if ref > 0 {
		_ = os.WriteFile(g.path, []byte(strconv.FormatInt(int64(ref), 10)+"\n"), 0o644) // a lost reference costs the next run its head start, no more
	}
}
