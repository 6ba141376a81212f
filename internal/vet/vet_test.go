package vet

import (
	"strings"
	"testing"
)

// runOn parses one source file attributed to package path rel and runs
// the given analyzer over it.
func runOn(t *testing.T, a *Analyzer, rel, src string) []Diagnostic {
	t.Helper()
	pkg, err := ParseSource(rel, "src.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Run([]Package{pkg}, []*Analyzer{a})
}

func wantDiags(t *testing.T, diags []Diagnostic, want int) {
	t.Helper()
	if len(diags) != want {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), want, diags)
	}
}

// --- engineclock ---------------------------------------------------

// TestEngineClockFlagsWallClock reproduces the pre-fix state of
// engine.go/lane.go: wall-clock reads inside the enforcement path.
func TestEngineClockFlagsWallClock(t *testing.T) {
	src := `package sentinel

import "time"

func (e *Engine) observe() {
	t0 := time.Now()
	_ = time.Since(t0)
	_ = time.Until(t0)
}
`
	diags := runOn(t, EngineClock, "internal/sentinel", src)
	wantDiags(t, diags, 3)
	for _, d := range diags {
		if !strings.Contains(d.Message, "engine clock") {
			t.Errorf("diagnostic should point at the engine clock, got %q", d.Message)
		}
	}
}

// TestEngineClockHonorsImportRename: renaming the time package must not
// hide the call.
func TestEngineClockHonorsImportRename(t *testing.T) {
	src := `package event

import stdtime "time"

func stamp() { _ = stdtime.Now() }
`
	wantDiags(t, runOn(t, EngineClock, "internal/event", src), 1)
}

// TestEngineClockAllowsEngineClockAndOtherPackages: clk.Now() is the
// sanctioned form, time.Time values are fine, and packages outside the
// enforcement path may use wall clocks freely.
func TestEngineClockAllowsEngineClockAndOtherPackages(t *testing.T) {
	clean := `package sentinel

import "time"

func (e *Engine) observe() {
	t0 := e.clk.Now()
	var d time.Duration
	_ = e.clk.Now().Sub(t0)
	_ = d
}
`
	wantDiags(t, runOn(t, EngineClock, "internal/sentinel", clean), 0)

	elsewhere := `package audit

import "time"

func stamp() { _ = time.Now() }
`
	wantDiags(t, runOn(t, EngineClock, "internal/audit", elsewhere), 0)
}

// TestEngineClockCoversCore: per-rule evaluation timing lives in
// internal/core now, so a wall-clock read there is a violation; the
// injected-clock form (p.det.Clock().Now()) passes.
func TestEngineClockCoversCore(t *testing.T) {
	dirty := `package core

import "time"

func (p *Pool) runRule() { _ = time.Now() }
`
	wantDiags(t, runOn(t, EngineClock, "internal/core", dirty), 1)

	clean := `package core

func (p *Pool) runRule() { _ = p.det.Clock().Now() }
`
	wantDiags(t, runOn(t, EngineClock, "internal/core", clean), 0)
}

// --- obsnil --------------------------------------------------------

// TestObsNilFlagsUnguardedDeref: touching e.obs.Decisions without a nil
// check crashes every system built without an Observer.
func TestObsNilFlagsUnguardedDeref(t *testing.T) {
	src := `package sentinel

func (e *Engine) count() {
	e.obs.Decisions.Inc()
}
`
	diags := runOn(t, ObsNil, "internal/sentinel", src)
	wantDiags(t, diags, 1)
	if !strings.Contains(diags[0].Message, "nil") {
		t.Errorf("diagnostic should mention the missing nil check, got %q", diags[0].Message)
	}
}

// TestObsNilAcceptsGuardedIdioms covers the three guard shapes used in
// the codebase: direct compare, snapshot-into-local, and if-scoped
// assignment.
func TestObsNilAcceptsGuardedIdioms(t *testing.T) {
	src := `package sentinel

func (e *Engine) direct() {
	if e.obs != nil {
		e.obs.Decisions.Inc()
	}
}

func (e *Engine) snapshot() {
	o := e.obs
	if o != nil {
		o.Decisions.Inc()
	}
	if o.Traces != nil {
		o.Traces.Start()
	}
}

func (d *Detector) drain() {
	if ins := d.ins; ins != nil {
		ins.LaneWait(0)
	}
}
`
	wantDiags(t, runOn(t, ObsNil, "internal/sentinel", src), 0)
}

// TestObsNilCoversSamplerAndSlow: the telemetry pointers added with
// sampled tracing and slow-decision capture are optional like the trace
// ring — unguarded chains through them are violations, guarded ones
// pass.
func TestObsNilCoversSamplerAndSlow(t *testing.T) {
	dirty := `package sentinel

func (e *Engine) sample(o *Observer) {
	_ = o.Sampler.Sample(e.clk.Now())
	o.Slow.Record(rec)
}
`
	wantDiags(t, runOn(t, ObsNil, "internal/sentinel", dirty), 2)

	clean := `package sentinel

func (e *Engine) sample(o *Observer) {
	if s := o.Sampler; s != nil {
		_ = s.Sample(e.clk.Now())
	}
	if sl := o.Slow; sl != nil && sl.Exceeds(d) {
		sl.Record(rec)
	}
}
`
	wantDiags(t, runOn(t, ObsNil, "internal/sentinel", clean), 0)
}

// TestObsNilIgnoresOtherPackages: the rule only applies to the four
// hot-path packages that treat observability as optional.
func TestObsNilIgnoresOtherPackages(t *testing.T) {
	src := `package rbacd

func run(s *server) { s.obs.Decisions.Inc() }
`
	wantDiags(t, runOn(t, ObsNil, "cmd/rbacd", src), 0)
}

// --- snapimmut -----------------------------------------------------

// TestSnapImmutFlagsPublishedWrites: mutating a snapshot that arrived
// through a receiver, parameter or package variable is the race the
// copy-on-write protocol exists to prevent.
func TestSnapImmutFlagsPublishedWrites(t *testing.T) {
	src := `package rbac

// accessView is the published policy snapshot.
//
// rbacvet:snapshot
type accessView struct {
	epoch    int
	sessions map[string]int
}

var current accessView

func patchParam(v *accessView) {
	v.epoch = 7
	v.sessions["s"] = 1
}

func patchGlobal() {
	current.epoch++
}
`
	diags := runOn(t, SnapImmut, "internal/rbac", src)
	wantDiags(t, diags, 3)
	for _, d := range diags {
		if !strings.Contains(d.Message, "immutable") {
			t.Errorf("diagnostic should explain the immutability invariant, got %q", d.Message)
		}
	}
}

// TestSnapImmutAllowsBuilders mirrors projectLocked and
// sessionViewLocked: composite-literal construction plus population in
// the same function is the sanctioned shape, and rebinding a local to a
// fresh snapshot is not a write through one.
func TestSnapImmutAllowsBuilders(t *testing.T) {
	src := `package rbac

// rbacvet:snapshot
type accessView struct {
	epoch    int
	sessions map[string]int
}

func build(old *accessView) *accessView {
	nv := &accessView{epoch: old.epoch + 1, sessions: map[string]int{}}
	nv.sessions["s"] = 1
	nv.epoch++
	var zero accessView
	zero.epoch = 1
	old = nv // rebinding, not a field write
	return old
}
`
	wantDiags(t, runOn(t, SnapImmut, "internal/rbac", src), 0)
}

// TestSnapImmutIgnoresUnmarkedTypes: only structs carrying the doc
// marker participate; ordinary mutable state is untouched.
func TestSnapImmutIgnoresUnmarkedTypes(t *testing.T) {
	src := `package rbac

type scratch struct{ n int }

func bump(s *scratch) { s.n++ }
`
	wantDiags(t, runOn(t, SnapImmut, "internal/rbac", src), 0)
}

// --- framework -----------------------------------------------------

// TestDiagnosticFormat pins the go-vet-style rendering the driver and
// editors rely on.
// --- batchsnap -----------------------------------------------------

// TestBatchSnapFlagsPerTupleRecapture: eligibility checks and epoch
// loads inside a batch function's per-tuple loop revert the batch to
// per-tuple snapshot cost and must be flagged.
func TestBatchSnapFlagsPerTupleRecapture(t *testing.T) {
	src := `package sentinel

func (e *Engine) DecideCheckBatch(tuples []CheckTuple) {
	for i := range tuples {
		_ = e.cacheable("ev")
		_ = e.fp.epoch.Load()
		_, _ = e.det.SoleNonRetainingSub("ev")
		_ = e.store.Epoch()
		_ = i
	}
}
`
	diags := runOn(t, BatchSnap, "internal/sentinel", src)
	wantDiags(t, diags, 4)
	for _, d := range diags {
		if !strings.Contains(d.Message, "once per batch") {
			t.Errorf("diagnostic should demand one capture per batch, got %q", d.Message)
		}
	}
}

// TestBatchSnapAcceptsOneCapturePerBatch mirrors the real batch path:
// captures before the loops, per-session generation reads and stores
// inside them.
func TestBatchSnapAcceptsOneCapturePerBatch(t *testing.T) {
	clean := `package sentinel

func (e *Engine) DecideCheckBatch(tuples []CheckTuple) {
	fp := e.fp
	cacheable := e.cacheable("ev")
	var epoch uint64
	if cacheable {
		epoch = fp.tab.Epoch()
	}
	for i := range tuples {
		sgen := fp.tab.Session(tuples[i].Session) // per-session state: allowed
		fp.tab.Store(nil, nil, epoch, sgen)
	}
}
`
	wantDiags(t, runOn(t, BatchSnap, "internal/sentinel", clean), 0)
}

// TestBatchSnapScope: non-batch functions and other packages are out of
// scope, and nested loops report each violation exactly once.
func TestBatchSnapScope(t *testing.T) {
	nonBatch := `package sentinel

func (e *Engine) DecideCheck() {
	for i := 0; i < 3; i++ {
		_ = e.cacheable("ev")
		_ = i
	}
}
`
	wantDiags(t, runOn(t, BatchSnap, "internal/sentinel", nonBatch), 0)

	otherPkg := `package wire

func (s *Server) CheckBatch(reqs []int) {
	for range reqs {
		_ = s.cacheable("ev")
	}
}
`
	wantDiags(t, runOn(t, BatchSnap, "internal/wire", otherPkg), 0)

	nested := `package sentinel

func (e *Engine) DecideCheckBatch(groups [][]int) {
	for _, g := range groups {
		for range g {
			_ = e.fp.epoch.Load()
		}
	}
}
`
	wantDiags(t, runOn(t, BatchSnap, "internal/sentinel", nested), 1)
}

// --- poolreturn ----------------------------------------------------

// TestPoolReturnFlagsEarlyReturnLeak: the classic shape — an error
// return between Get and Put drops the buffer.
func TestPoolReturnFlagsEarlyReturnLeak(t *testing.T) {
	src := `package sentinel

func decide(fail bool) error {
	b := bufPool.Get().(*buf)
	if fail {
		return errBad
	}
	use(b)
	bufPool.Put(b)
	return nil
}
`
	diags := runOn(t, PoolReturn, "internal/sentinel", src)
	wantDiags(t, diags, 1)
	if !strings.Contains(diags[0].Message, "bufPool") {
		t.Errorf("diagnostic should name the pool, got %q", diags[0].Message)
	}
}

// TestPoolReturnFlagsFallOffEnd: a void function that never puts the
// buffer back leaks on its implicit return.
func TestPoolReturnFlagsFallOffEnd(t *testing.T) {
	src := `package sentinel

func fill() {
	b := keyPool.Get().(*[]byte)
	_ = len(*b)
}
`
	wantDiags(t, runOn(t, PoolReturn, "internal/sentinel", src), 1)
}

// TestPoolReturnAcceptsCoveredPaths: deferred Put covers every path;
// Put or a hand-off before the return covers that path.
func TestPoolReturnAcceptsCoveredPaths(t *testing.T) {
	for _, src := range []string{
		// Deferred Put covers the early return.
		`package sentinel

func decide(fail bool) error {
	b := bufPool.Get().(*buf)
	defer bufPool.Put(b)
	if fail {
		return errBad
	}
	return nil
}
`,
		// Put before the early return.
		`package sentinel

func decide(fail bool) error {
	b := bufPool.Get().(*buf)
	if fail {
		bufPool.Put(b)
		return errBad
	}
	bufPool.Put(b)
	return nil
}
`,
		// Hand-off: the buffer escapes into the verdict before returning,
		// so ownership moved with it.
		`package sentinel

func decide() *buf {
	b := bufPool.Get().(*buf)
	return b
}
`,
		// Hand-off to a releasing helper, PR 6 carrier style.
		`package sentinel

func decide(fail bool) error {
	b := bufPool.Get().(*buf)
	release(b)
	if fail {
		return errBad
	}
	return nil
}
`,
		// Hand-off into a field.
		`package sentinel

func attach(v *verdict) {
	b := bufPool.Get().(*buf)
	v.scratch = b
}
`,
	} {
		wantDiags(t, runOn(t, PoolReturn, "internal/sentinel", src), 0)
	}
}

// TestPoolReturnIgnoresNonPools: Get on something not pool-named is out
// of scope.
func TestPoolReturnIgnoresNonPools(t *testing.T) {
	src := `package sentinel

func load(fail bool) error {
	v := cache.Get().(*entry)
	if fail {
		return errBad
	}
	_ = v
	return nil
}
`
	wantDiags(t, runOn(t, PoolReturn, "internal/sentinel", src), 0)
}

func TestDiagnosticFormat(t *testing.T) {
	diags := runOn(t, EngineClock, "internal/sentinel", `package sentinel

import "time"

func f() { _ = time.Now() }
`)
	wantDiags(t, diags, 1)
	s := diags[0].String()
	if !strings.HasPrefix(s, "src.go:5:") || !strings.Contains(s, "engineclock:") {
		t.Errorf("diagnostic format = %q, want file:line:col: pass: message", s)
	}
}

// TestAnalyzersRegistry: the driver must ship every pass.
func TestAnalyzersRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	for _, want := range []string{"engineclock", "obsnil", "snapimmut", "batchsnap", "poolreturn"} {
		if !names[want] {
			t.Errorf("registry missing analyzer %q", want)
		}
	}
}
