package sentinel

import (
	"errors"
	"sync"
	"testing"
	"time"

	"activerbac/internal/clock"
	"activerbac/internal/core"
	"activerbac/internal/event"
)

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func newEngine() (*Engine, *clock.Sim) {
	sim := clock.NewSim(t0)
	return NewEngine(sim), sim
}

func TestReactiveObjectInvoke(t *testing.T) {
	e, _ := newEngine()
	obj := NewReactiveObject(e.Detector(), "fileMgr")
	if err := obj.DesignateMethod("open"); err != nil {
		t.Fatal(err)
	}
	var got []*event.Occurrence
	if _, err := e.Detector().Subscribe("fileMgr.open", func(o *event.Occurrence) { got = append(got, o) }); err != nil {
		t.Fatal(err)
	}
	if err := obj.Invoke("open", event.Params{"user": "bob", "file": "patient.dat"}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Params["file"] != "patient.dat" {
		t.Fatalf("occurrences %v", got)
	}
	if err := obj.Invoke("close", nil); err == nil {
		t.Fatal("non-designated method invocable")
	}
	if err := obj.DesignateMethod(""); err == nil {
		t.Fatal("empty method accepted")
	}
	if obj.Name() != "fileMgr" {
		t.Fatalf("Name = %q", obj.Name())
	}
}

func TestReactiveObjectMethods(t *testing.T) {
	e, _ := newEngine()
	obj := NewReactiveObject(e.Detector(), "o")
	for _, m := range []string{"zz", "aa"} {
		if err := obj.DesignateMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	ms := obj.Methods()
	if len(ms) != 2 || ms[0] != "aa" || ms[1] != "zz" {
		t.Fatalf("Methods = %v", ms)
	}
}

func TestMethodEventNaming(t *testing.T) {
	if MethodEvent("rbac", "checkAccess") != "rbac.checkAccess" {
		t.Fatal("MethodEvent naming changed")
	}
}

type recorder struct {
	mu   sync.Mutex
	occs []*event.Occurrence
}

func (r *recorder) Notify(o *event.Occurrence) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.occs = append(r.occs, o)
}

func TestNotifiable(t *testing.T) {
	e, _ := newEngine()
	e.Detector().MustPrimitive("ping")
	rec := &recorder{}
	if _, err := NotifyOn(e.Detector(), "ping", rec); err != nil {
		t.Fatal(err)
	}
	e.Detector().MustRaise("ping", nil)
	if len(rec.occs) != 1 {
		t.Fatalf("notified %d times, want 1", len(rec.occs))
	}
}

func TestExternalMonitorInject(t *testing.T) {
	e, _ := newEngine()
	m := e.Monitor()
	if err := m.Register("sensor.location"); err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := e.Detector().Subscribe("sensor.location", func(*event.Occurrence) { n++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.Inject("sensor.location", event.Params{"room": "ICU"}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("injected %d, want 1", n)
	}
	if err := m.Inject("sensor.unknown", nil); err == nil {
		t.Fatal("unknown external event accepted")
	}
}

func TestExternalMonitorPump(t *testing.T) {
	e, _ := newEngine()
	m := e.Monitor()
	if err := m.Register("sensor.door"); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	n := 0
	if _, err := e.Detector().Subscribe("sensor.door", func(*event.Occurrence) {
		mu.Lock()
		n++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	src, err := m.Start(16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(16); err == nil {
		t.Fatal("double Start accepted")
	}
	for i := 0; i < 10; i++ {
		src <- External{Event: "sensor.door"}
	}
	src <- External{Event: "sensor.bogus"} // counted as error
	m.Stop()
	m.Stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if n != 10 {
		t.Fatalf("pumped %d, want 10", n)
	}
	if m.Errors() != 1 {
		t.Fatalf("Errors = %d, want 1", m.Errors())
	}
}

func TestDecisionAggregation(t *testing.T) {
	d := &Decision{}
	if d.Allowed() {
		t.Fatal("voteless decision allowed (must fail closed)")
	}
	if d.Reason() != "no applicable rule" {
		t.Fatalf("Reason = %q", d.Reason())
	}
	d.Allow("r1")
	if !d.Allowed() {
		t.Fatal("single allow not allowed")
	}
	if d.Err() != nil {
		t.Fatal("Err on allowed decision")
	}
	d.Deny("r2", "cardinality reached")
	if d.Allowed() {
		t.Fatal("deny did not override allow")
	}
	if d.Reason() != "cardinality reached" {
		t.Fatalf("Reason = %q", d.Reason())
	}
	if d.Err() == nil {
		t.Fatal("Err nil on denied decision")
	}
	if len(d.Votes()) != 2 {
		t.Fatalf("Votes = %v", d.Votes())
	}
	if d.String() == "" {
		t.Fatal("empty String")
	}
}

func TestEngineDecide(t *testing.T) {
	e, _ := newEngine()
	det := e.Detector()
	det.MustPrimitive("req.activate")
	e.Pool().MustAdd(core.Rule{
		Name: "AAR", On: "req.activate",
		When: []core.Condition{core.BoolCond("user==bob", func(o *event.Occurrence) bool {
			return o.Params["user"] == "bob"
		})},
		Then: []core.Action{core.Act("allow", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Allow("AAR")
			}
			return nil
		})},
		Else: []core.Action{core.Act("deny", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Deny("AAR", "access denied cannot activate")
			}
			return nil
		})},
	})

	dec, err := e.Decide("req.activate", event.Params{"user": "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Allowed() {
		t.Fatalf("bob denied: %s", dec.Reason())
	}
	dec, err = e.Decide("req.activate", event.Params{"user": "mallory"})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed() {
		t.Fatal("mallory allowed")
	}
	if dec.Reason() != "access denied cannot activate" {
		t.Fatalf("Reason = %q", dec.Reason())
	}
	if _, err := e.Decide("req.unknown", nil); err == nil {
		t.Fatal("unknown event accepted")
	}
}

func TestDecideCascadedOverride(t *testing.T) {
	// Paper Rule 4 shape: the activation rule allows and raises a
	// follow-up event; the cardinality rule triggered by the cascade
	// vetoes. The caller must see the deny.
	e, _ := newEngine()
	det := e.Detector()
	det.MustPrimitive("req.activate")
	det.MustPrimitive("roleAdded")
	e.Pool().MustAdd(core.Rule{
		Name: "AAR", On: "req.activate",
		Then: []core.Action{core.Act("allow+cascade", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Allow("AAR")
			}
			return det.Raise("roleAdded", o.Params)
		})},
	})
	e.Pool().MustAdd(core.Rule{
		Name: "CC1", On: "roleAdded",
		When: []core.Condition{core.BoolCond("cardinality", func(*event.Occurrence) bool { return false })},
		Else: []core.Action{core.Act("veto", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Deny("CC1", "maximum number of roles reached")
			}
			return nil
		})},
	})
	dec, err := e.Decide("req.activate", nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Allowed() {
		t.Fatal("cascaded veto lost: decision allowed")
	}
	if dec.Reason() != "maximum number of roles reached" {
		t.Fatalf("Reason = %q", dec.Reason())
	}
}

func TestDecideConcurrent(t *testing.T) {
	e, _ := newEngine()
	det := e.Detector()
	det.MustPrimitive("req")
	e.Pool().MustAdd(core.Rule{
		Name: "r", On: "req",
		Then: []core.Action{core.Act("allow", func(o *event.Occurrence) error {
			if dec, ok := DecisionOf(o); ok {
				dec.Allow("r")
			}
			return nil
		})},
	})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				dec, err := e.Decide("req", nil)
				if err != nil {
					errs <- err
					return
				}
				if !dec.Allowed() {
					errs <- errors.New("denied")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEngineNotifyAndSummary(t *testing.T) {
	e, _ := newEngine()
	e.Detector().MustPrimitive("tick")
	n := 0
	if _, err := e.Detector().Subscribe("tick", func(*event.Occurrence) { n++ }); err != nil {
		t.Fatal(err)
	}
	if err := e.Notify("tick", nil); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatal("Notify did not deliver")
	}
}

func TestDecisionOfMissing(t *testing.T) {
	if _, ok := DecisionOf(nil); ok {
		t.Fatal("DecisionOf(nil) ok")
	}
	if _, ok := DecisionOf(&event.Occurrence{}); ok {
		t.Fatal("DecisionOf without params ok")
	}
}
