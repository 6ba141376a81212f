package rulegen

import (
	"fmt"
	"sync"
	"time"

	"activerbac/internal/core"
	"activerbac/internal/event"
	"activerbac/internal/policy"
)

// Periodic monitoring reports — the paper's stated use of the PERIODIC
// operator: "This event operator can be used to periodically monitor
// the underlying system and generate reports." A `report NAME every
// DUR` policy statement compiles into a PERIODIC composite event; the
// generated RPT rule fires on every tick and delivers a snapshot of
// the engine's counters to registered listeners.

// SystemReport is one periodic monitoring snapshot.
type SystemReport struct {
	// Name is the report's policy name; Tick counts deliveries since
	// the report started.
	Name string
	Tick int
	// At is the engine-clock instant of the tick.
	At time.Time
	// Rules / Users / Roles / Sessions are pool and store sizes.
	Rules, Users, Roles, Sessions int
	// Detections is the cumulative event count; Denials the cumulative
	// denial count; Alerts the active-security alerts fired so far.
	Detections uint64
	Denials    uint64
	Alerts     int
}

// String renders the report for logs.
func (r SystemReport) String() string {
	return fmt.Sprintf("[%s] report %q #%d: rules=%d sessions=%d detections=%d denials=%d alerts=%d",
		r.At.Format("15:04:05"), r.Name, r.Tick, r.Rules, r.Sessions, r.Detections, r.Denials, r.Alerts)
}

// reportState tracks one installed report schedule.
type reportState struct {
	spec    policy.ReportSpec
	version int
	ticks   int
}

// OnReport registers a listener for every periodic report tick.
// Listeners run on the detector's drain goroutine and must not block.
func (g *Generator) OnReport(fn func(SystemReport)) {
	g.repMu.Lock()
	defer g.repMu.Unlock()
	g.repListeners = append(g.repListeners, fn)
}

// reportPlumbing is embedded in Generator.
type reportPlumbing struct {
	repMu        sync.Mutex
	repListeners []func(SystemReport)
	reports      map[string]*reportState
	repVersion   int
}

// startReport wires one report schedule: a PERIODIC composite over
// per-report start/stop events, and the RPT rule on its ticks. Event
// names are versioned because composite events cannot be undefined when
// a report is rescheduled.
func (g *Generator) startReport(spec policy.ReportSpec) error {
	g.repMu.Lock()
	if g.reports == nil {
		g.reports = make(map[string]*reportState)
	}
	g.repVersion++
	st := &reportState{spec: spec, version: g.repVersion}
	g.reports[spec.Name] = st
	g.repMu.Unlock()

	det := g.eng.Detector()
	startEv := fmt.Sprintf("report.start.%s.v%d", spec.Name, st.version)
	stopEv := fmt.Sprintf("report.stop.%s.v%d", spec.Name, st.version)
	tickEv := fmt.Sprintf("report.tick.%s.v%d", spec.Name, st.version)
	if err := det.DefinePrimitive(startEv); err != nil {
		return err
	}
	if err := det.DefinePrimitive(stopEv); err != nil {
		return err
	}
	if err := det.Define(tickEv, event.Periodic(event.NameExpr(startEv), spec.Every, event.NameExpr(stopEv))); err != nil {
		return err
	}
	name := spec.Name
	if err := g.eng.Pool().Add(core.Rule{
		Name: fmt.Sprintf("RPT.%s.v%d", spec.Name, st.version), On: tickEv,
		Class: core.ActiveSecurity, Granularity: core.Globalized,
		Tags: []string{TagGlobal, "report:" + spec.Name},
		Then: []core.Action{
			core.Act("generate report "+spec.Name, func(*event.Occurrence) error {
				g.emitReport(name, st)
				return nil
			}),
		},
	}); err != nil {
		return err
	}
	return det.Raise(startEv, nil)
}

// stopReport terminates a report's PERIODIC window and removes its rule.
func (g *Generator) stopReport(name string) error {
	g.repMu.Lock()
	st, ok := g.reports[name]
	if ok {
		delete(g.reports, name)
	}
	g.repMu.Unlock()
	if !ok {
		return fmt.Errorf("rulegen: report %q not installed", name)
	}
	g.eng.Pool().RemoveByTag("report:" + name)
	stopEv := fmt.Sprintf("report.stop.%s.v%d", name, st.version)
	return g.eng.Detector().Raise(stopEv, nil)
}

// emitReport snapshots the engine and delivers to listeners.
func (g *Generator) emitReport(name string, st *reportState) {
	g.repMu.Lock()
	st.ticks++
	tick := st.ticks
	listeners := make([]func(SystemReport), len(g.repListeners))
	copy(listeners, g.repListeners)
	g.repMu.Unlock()

	es := g.eng.Detector().Stats()
	c := g.eng.Store().Count()
	rep := SystemReport{
		Name: name, Tick: tick, At: g.eng.Clock().Now(),
		Rules: g.eng.Pool().Len(), Users: c.Users, Roles: c.Roles, Sessions: c.Sessions,
		Detections: es.Detected,
		Denials:    g.mon.Denials(),
		Alerts:     len(g.mon.Alerts()),
	}
	for _, fn := range listeners {
		fn(rep)
	}
}

// diffReports transitions report schedules during Apply.
func (g *Generator) diffReports(old, new *policy.Spec) error {
	oldM := make(map[string]policy.ReportSpec, len(old.Reports))
	for _, r := range old.Reports {
		oldM[r.Name] = r
	}
	newM := make(map[string]policy.ReportSpec, len(new.Reports))
	for _, r := range new.Reports {
		newM[r.Name] = r
	}
	for name, r := range oldM {
		if nr, ok := newM[name]; ok && nr.Every == r.Every {
			continue
		}
		if err := g.stopReport(name); err != nil {
			return err
		}
	}
	// Start in policy order, so report versions are deterministic.
	for _, r := range new.Reports {
		if or, ok := oldM[r.Name]; ok && or.Every == r.Every {
			continue
		}
		if err := g.startReport(r); err != nil {
			return err
		}
	}
	return nil
}
