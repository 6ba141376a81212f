package main

import (
	"time"

	"activerbac/internal/workload"
)

// Every constant that shapes a measurement lives in this file and is
// frozen with the benchmark: a later change that moves a number must be
// judged with the numbers below, not with new ones. (BENCHMARK.json's
// schema has no room for them, so they are frozen here instead.)

// Enterprise sizes. Both are the paper's XYZ shape scaled up: four
// department branches over one shared bottom role, one static and two
// dynamic SoD relations between adjacent branches (3 eligible pairs, so
// the fractions below round to 1 and 2 sets), a cardinality bound on
// every 8th role.
var (
	// e32 opens in about 0.3 s on the reference host.
	e32 = enterprise{roles: 32, users: 512, permsPerRole: 8}
	// e32wide has the same roles with four times the permissions: its
	// 38 KB .acp opens in about 0.8 s. Open grows with roles × total
	// permissions (64 roles × 16 permissions × 1024 users takes 4.6 s),
	// and a run has to start its server three times inside the driver's
	// time cap, so the cold universe is bought with permissions and
	// sessions per user, not with roles and users.
	e32wide = enterprise{roles: 32, users: 256, permsPerRole: 32}
	// e16 reloads in about 0.1 s per server (a hot reload compiles the
	// incoming policy on a scratch engine before touching the live one, so
	// it costs an Open), which lets reload_fleet fit twenty reloads in a
	// run and still leave the replica most of its time for checks.
	e16 = enterprise{roles: 16, users: 256, permsPerRole: 8}
	// tiny keeps `go test ./benchmark` under a few seconds.
	tiny = enterprise{roles: 9, users: 16, permsPerRole: 4}
)

type enterprise struct {
	roles, users, permsPerRole int
}

func (e enterprise) config(seed int64) workload.EnterpriseConfig {
	return workload.EnterpriseConfig{
		Roles: e.roles, Shape: workload.XYZShape, Branch: 4,
		SSDFraction: 0.4, DSDFraction: 0.7,
		Users: e.users, PermsPerRole: e.permsPerRole,
		CardinalityEvery: 8, Seed: seed,
	}
}

// The server's verdict cache (internal/sentinel/fastpath.go) holds
// fpShards × fpShardCap = 64 × 4096 = 262 144 entries and hashes
// sessions into fpSessionSlots = 256 generation slots. Workload sizes
// are chosen against those numbers; see README.md.
const (
	// hotTuples is the distinct allowed tuples hot_wire and reload_fleet
	// probe: 1.6 % of the verdict cache, so after warm-up every allowed
	// check is a hit.
	hotTuples = 4096
	// zipfS skews the hot set; 1.1 puts half the traffic on ~60 tuples.
	zipfS = 1.1
	// denyShare of per-tuple checks ask for a permission the session
	// does not hold; denials are never cached, so they keep the cascade
	// in the picture.
	denyShare = 0.05

	// batchTuples per CHECK_BATCH frame; batchDenyShare of them denied.
	batchTuples    = 256
	batchDenyShare = 0.20

	// closedCallers drive the closed-loop phase of per-tuple workloads;
	// batchCallers and churnCallers the other two closed loops.
	closedCallers = 16
	batchCallers  = 2
	churnCallers  = 2
	// openWorkers bounds the open loop's in-flight requests. It only
	// matters when the server stalls: 64 × the ~50 µs service time is
	// 3 ms of queue before requests wait in the generator instead, and
	// that wait is counted, because latency runs from the due time.
	openWorkers = 64

	// Lifecycle shape of churn_mixed.
	churnChecks       = 24
	churnPerms        = 6
	churnAssignEvery  = 16
	churnForeignShare = 0.10
	churnTwoRoleShare = 0.50

	// reloadPeriod is the fixed schedule of reload_fleet's policy edits:
	// one POST a second whatever the last one took (about a quarter of a
	// second on the reference host), so every run makes the same number
	// of reloads and the replica spends most of its time just serving.
	reloadPeriod = time.Second
	// convergePoll is the POLICY_VERSION polling period while waiting
	// for the replica.
	convergePoll = time.Millisecond

	// runSlices: a run measures this many equal slices of --seconds, with
	// the host guard between them, so that a disturbed stretch of a shared
	// host costs a slice and not the run.
	runSlices = 20

	// setupRepeats: set-up is run this many times on fresh children and
	// setup_s is the median; the last one is measured on.
	setupRepeats = 3
)

// Open-loop arrival rates in checks per second. Set once to half the
// closed-loop capacity the seed commit showed on the reference host
// (2 CPUs; README.md records the capacities) and never recomputed at
// run time: a rate that followed the server would hide a regression.
const (
	rateHot    = 25000
	rateReload = 11000
)

// Phase shares of --seconds. Warm-up comes on top and is not measured.
const (
	warmup = time.Second
	// Per-tuple workloads split the measured time between a closed loop
	// (capacity) and an open loop (latency at a fixed rate).
	closedShare = 0.4
)

// Validity gates: a run whose workload no longer does what its name
// says is reported as incorrect.
const (
	gateHotHitShareMin  = 0.90
	gateColdHitShareMax = 0.35
	gateSentShareMin    = 0.999
)
