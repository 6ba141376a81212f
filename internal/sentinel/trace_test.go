package sentinel

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"activerbac/internal/clock"
	"activerbac/internal/core"
	"activerbac/internal/event"
	"activerbac/internal/obs"
)

// tracedEngine builds an engine with a trace ring and two chained
// rules: an activation rule on req.activate that allows and cascades to
// roleAdded, and a cardinality rule on roleAdded that denies sessions
// named in veto. The trace must follow the request through the cascade.
func tracedEngine(t *testing.T, ring int, veto map[string]bool) (*Engine, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(t0)
	e := NewEngine(sim, WithObserver(obs.NewObserver(ring)))
	det := e.Detector()
	det.MustPrimitive("req.activate")
	det.MustPrimitive("roleAdded")
	e.Pool().MustAdd(core.Rule{
		Name: "AAR", On: "req.activate",
		When: []core.Condition{core.BoolCond("session set", func(o *event.Occurrence) bool {
			s, _ := o.Params["session"].(string)
			return s != ""
		})},
		Then: []core.Action{core.Act("allow+cascade", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Allow("AAR")
			}
			return det.RaiseFrom(o, "roleAdded", o.Params)
		})},
		Else: []core.Action{core.Act("deny", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Deny("AAR", "no session")
			}
			return nil
		})},
	})
	e.Pool().MustAdd(core.Rule{
		Name: "CC1", On: "roleAdded",
		When: []core.Condition{core.BoolCond("cardinality", func(o *event.Occurrence) bool {
			s, _ := o.Params["session"].(string)
			return !veto[s]
		})},
		Else: []core.Action{core.Act("veto", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Deny("CC1", "maximum number of roles reached")
			}
			return nil
		})},
	})
	return e, sim
}

func kindsOf(steps []obs.Step) map[obs.StepKind]int {
	m := make(map[obs.StepKind]int)
	for _, s := range steps {
		m[s.Kind]++
	}
	return m
}

func TestDecideTraceCompleteCascade(t *testing.T) {
	e, _ := tracedEngine(t, 16, nil)
	dec, err := e.Decide("req.activate", event.Params{"session": "s1", "user": "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed() {
		t.Fatalf("denied: %s", dec.Reason())
	}
	tr := dec.Trace()
	if tr == nil {
		t.Fatal("Decision.Trace() nil with tracing on")
	}
	td := tr.Snapshot()
	if !td.Complete {
		t.Fatal("trace not complete after Decide returned")
	}
	if td.Event != "req.activate" || td.Scope != "s1" {
		t.Fatalf("trace header = %+v", td)
	}
	if !td.Begin.Equal(t0) || !td.End.Equal(t0) {
		t.Fatalf("trace not engine-clock stamped: begin=%v end=%v", td.Begin, td.End)
	}

	// The full cascade: the primitive raise, AAR's condition, verdict and
	// action; the cascaded raise; then CC1's condition and verdict.
	k := kindsOf(td.Steps)
	if k[obs.StepRaise] != 2 || k[obs.StepCascade] != 1 {
		t.Fatalf("raise/cascade steps = %v\n%v", k, td.Steps)
	}
	if k[obs.StepCondition] != 2 || k[obs.StepRule] != 2 || k[obs.StepAction] < 1 {
		t.Fatalf("rule steps = %v\n%v", k, td.Steps)
	}
	for i, s := range td.Steps {
		if s.Seq != i {
			t.Fatalf("step %d has Seq %d", i, s.Seq)
		}
		if !s.At.Equal(t0) {
			t.Fatalf("step %d not engine-clock stamped: %v", i, s.At)
		}
	}

	// The same trace is retained in the ring under its id.
	got, ok := e.Observer().Traces.Get(tr.ID())
	if !ok {
		t.Fatalf("trace %d not retained", tr.ID())
	}
	if len(got.Steps) != len(td.Steps) {
		t.Fatalf("ring trace has %d steps, decision trace %d", len(got.Steps), len(td.Steps))
	}
}

func TestDecideTraceDenyBranch(t *testing.T) {
	e, _ := tracedEngine(t, 8, map[string]bool{"s9": true})
	dec, err := e.Decide("req.activate", event.Params{"session": "s9"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed() {
		t.Fatal("vetoed session allowed")
	}
	td := dec.Trace().Snapshot()
	var sawElse, sawFailedCond bool
	for _, s := range td.Steps {
		if s.Kind == obs.StepRule && s.Rule == "CC1" && s.Detail == "else" && !s.OK {
			sawElse = true
		}
		if s.Kind == obs.StepCondition && s.Rule == "CC1" && !s.OK {
			sawFailedCond = true
		}
	}
	if !sawElse || !sawFailedCond {
		t.Fatalf("deny branch not traced: else=%v failedCond=%v\n%v", sawElse, sawFailedCond, td.Steps)
	}
}

// TestEngineAlwaysObserved: an engine built without an observer, or
// given a nil one, builds its own, and that observer counts decisions —
// there is no unmetered engine.
func TestEngineAlwaysObserved(t *testing.T) {
	for name, e := range map[string]*Engine{
		"no option":        NewEngine(clock.NewSim(t0)),
		"nil WithObserver": NewEngine(clock.NewSim(t0), WithObserver(nil)),
	} {
		t.Run(name, func(t *testing.T) {
			o := e.Observer()
			if o == nil {
				t.Fatal("Observer() is nil")
			}
			e.Detector().MustPrimitive("req")
			dec, err := e.DecideCheck("req", "u", "s", "read", "doc")
			if err != nil {
				t.Fatal(err)
			}
			if dec.Allowed() {
				t.Fatal("a check no rule voted on was allowed")
			}
			var b strings.Builder
			if err := o.Registry.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			want := `activerbac_decisions_total{event="req",verdict="deny"} 1` + "\n"
			if !strings.Contains(b.String(), want) {
				t.Fatalf("scrape lacks %q:\n%s", want, b.String())
			}
		})
	}
}

func TestDecideTracingDisabled(t *testing.T) {
	// No observer option: the engine's own observer has no trace ring.
	e, _ := newEngine()
	e.Detector().MustPrimitive("req")
	dec, err := e.Decide("req", nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trace() != nil {
		t.Fatal("trace present without a trace ring")
	}

	// A caller-supplied observer, tracing off (ring capacity 0).
	o := obs.NewObserver(0)
	e2 := NewEngine(clock.NewSim(t0), WithObserver(o))
	e2.Detector().MustPrimitive("req")
	dec2, err := e2.Decide("req", nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Trace() != nil {
		t.Fatal("trace present with ring disabled")
	}
	if o.Decisions.With("req", "deny").Value() != 1 {
		t.Fatal("decision counter not incremented in metrics-only mode")
	}
}

// TestTraceLifecycleConcurrent drives N goroutines × M scopes through
// the engine under the race detector and asserts every decision
// produced a complete, ordered trace whose steps never mention another
// scope's session.
func TestTraceLifecycleConcurrent(t *testing.T) {
	const goroutines, scopes, rounds = 8, 4, 20
	e, _ := tracedEngine(t, goroutines*scopes*rounds, nil)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	traces := make(chan obs.TraceData, goroutines*scopes*rounds)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := 0; m < scopes; m++ {
				sess := fmt.Sprintf("sess-%d-%d", g, m)
				for i := 0; i < rounds; i++ {
					dec, err := e.Decide("req.activate", event.Params{"session": sess})
					if err != nil {
						errs <- err
						return
					}
					tr := dec.Trace()
					if tr == nil {
						errs <- fmt.Errorf("no trace for %s", sess)
						return
					}
					traces <- tr.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	close(traces)
	for err := range errs {
		t.Fatal(err)
	}

	n := 0
	for td := range traces {
		n++
		if !td.Complete {
			t.Fatalf("incomplete trace %d for scope %s", td.ID, td.Scope)
		}
		k := kindsOf(td.Steps)
		if k[obs.StepCascade] != 1 || k[obs.StepRule] != 2 {
			t.Fatalf("trace %d missing cascade steps: %v", td.ID, k)
		}
		for i, s := range td.Steps {
			if s.Seq != i {
				t.Fatalf("trace %d step %d has Seq %d (mixed writers?)", td.ID, i, s.Seq)
			}
			if i > 0 && s.At.Before(td.Steps[i-1].At) {
				t.Fatalf("trace %d step %d goes back in time", td.ID, i)
			}
			// Never mixed: a step detail naming a session names ours.
			if strings.Contains(s.Detail, "sess-") && !strings.Contains(s.Detail, td.Scope) {
				t.Fatalf("trace %d (scope %s) contains foreign step: %v", td.ID, td.Scope, s)
			}
		}
	}
	if n != goroutines*scopes*rounds {
		t.Fatalf("collected %d traces, want %d", n, goroutines*scopes*rounds)
	}
	// Every one is retained (ring sized to fit) and retrievable.
	if got := e.Observer().Traces.Recent(0); len(got) != n {
		t.Fatalf("ring retained %d traces, want %d", len(got), n)
	}
}
