package security

import (
	"testing"
	"time"

	"activerbac/internal/clock"
)

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func newMonitor() (*Monitor, *clock.Sim) {
	sim := clock.NewSim(t0)
	return NewMonitor(sim), sim
}

func TestThresholdValidation(t *testing.T) {
	m, _ := newMonitor()
	if err := m.AddThreshold("", 5, time.Minute, "alert"); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := m.AddThreshold("t", 0, time.Minute, "alert"); err == nil {
		t.Fatal("zero count accepted")
	}
	if err := m.AddThreshold("t", 5, 0, "alert"); err == nil {
		t.Fatal("zero window accepted")
	}
	if err := m.AddThreshold("t", 5, time.Minute, "alert"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddThreshold("t", 5, time.Minute, "alert"); err == nil {
		t.Fatal("duplicate accepted")
	}
	if got := m.Thresholds(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("Thresholds = %v", got)
	}
	if err := m.RemoveThreshold("t"); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveThreshold("t"); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestFiresExactlyAtThreshold(t *testing.T) {
	m, _ := newMonitor()
	if err := m.AddThreshold("burst", 5, 10*time.Minute, "alert"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if fired := m.RecordDenial("mallory"); len(fired) != 0 {
			t.Fatalf("fired at %d denials, want 5", i+1)
		}
	}
	fired := m.RecordDenial("mallory")
	if len(fired) != 1 {
		t.Fatalf("fired = %v at threshold", fired)
	}
	a := fired[0]
	if a.Threshold != "burst" || a.Subject != "mallory" || a.Count != 5 || a.Action != "alert" {
		t.Fatalf("alert = %+v", a)
	}
	if m.Denials() != 5 {
		t.Fatalf("Denials = %d", m.Denials())
	}
}

func TestWindowSlides(t *testing.T) {
	m, sim := newMonitor()
	if err := m.AddThreshold("burst", 3, 10*time.Minute, "alert"); err != nil {
		t.Fatal(err)
	}
	m.RecordDenial("u")
	m.RecordDenial("u")
	// The first two age out of the window.
	sim.Advance(11 * time.Minute)
	if fired := m.RecordDenial("u"); len(fired) != 0 {
		t.Fatal("fired on stale window")
	}
	sim.Advance(time.Minute)
	m.RecordDenial("u")
	if fired := m.RecordDenial("u"); len(fired) != 1 {
		t.Fatal("did not fire on fresh burst")
	}
}

func TestBurstResetsAfterFire(t *testing.T) {
	m, _ := newMonitor()
	if err := m.AddThreshold("burst", 2, time.Hour, "alert"); err != nil {
		t.Fatal(err)
	}
	m.RecordDenial("u")
	if fired := m.RecordDenial("u"); len(fired) != 1 {
		t.Fatal("no fire")
	}
	// The window cleared: the next denial alone must not re-fire.
	if fired := m.RecordDenial("u"); len(fired) != 0 {
		t.Fatal("re-fired immediately after alert")
	}
	if fired := m.RecordDenial("u"); len(fired) != 1 {
		t.Fatal("second burst did not fire")
	}
	if got := len(m.Alerts()); got != 2 {
		t.Fatalf("Alerts = %d", got)
	}
}

func TestSubjectsIndependent(t *testing.T) {
	m, _ := newMonitor()
	if err := m.AddThreshold("burst", 3, time.Hour, "alert"); err != nil {
		t.Fatal(err)
	}
	m.RecordDenial("a")
	m.RecordDenial("a")
	m.RecordDenial("b")
	if fired := m.RecordDenial("b"); len(fired) != 0 {
		t.Fatal("subjects shared a window")
	}
	if fired := m.RecordDenial("a"); len(fired) != 1 {
		t.Fatal("subject a did not fire at 3")
	}
}

func TestMultipleThresholds(t *testing.T) {
	m, _ := newMonitor()
	if err := m.AddThreshold("fast", 2, time.Minute, "alert"); err != nil {
		t.Fatal(err)
	}
	if err := m.AddThreshold("slow", 3, time.Hour, "lock-user"); err != nil {
		t.Fatal(err)
	}
	m.RecordDenial("u")
	fired := m.RecordDenial("u") // fast fires
	if len(fired) != 1 || fired[0].Threshold != "fast" {
		t.Fatalf("fired = %v", fired)
	}
	fired = m.RecordDenial("u") // slow fires at 3
	if len(fired) != 1 || fired[0].Threshold != "slow" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestResponsesAndListeners(t *testing.T) {
	m, _ := newMonitor()
	if err := m.AddThreshold("burst", 1, time.Minute, "lock-user"); err != nil {
		t.Fatal(err)
	}
	var locked []string
	m.RegisterResponse("lock-user", func(a Alert) { locked = append(locked, a.Subject) })
	var heard []Alert
	m.OnAlert(func(a Alert) { heard = append(heard, a) })
	m.RecordDenial("mallory")
	if len(locked) != 1 || locked[0] != "mallory" {
		t.Fatalf("locked = %v", locked)
	}
	if len(heard) != 1 {
		t.Fatalf("heard = %v", heard)
	}
	if heard[0].String() == "" {
		t.Fatal("empty Alert.String")
	}
}

func TestUnknownActionStillAlerts(t *testing.T) {
	m, _ := newMonitor()
	if err := m.AddThreshold("burst", 1, time.Minute, "page-oncall"); err != nil {
		t.Fatal(err)
	}
	if fired := m.RecordDenial("u"); len(fired) != 1 {
		t.Fatal("no alert for unregistered action")
	}
}

// countingClock counts Now calls on top of a simulated clock.
type countingClock struct {
	*clock.Sim
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.Sim.Now()
}

// TestDenialWithoutThresholdsReadsNoClock: a monitor with no threshold
// records denials without reading the clock; one with a threshold
// reads it once per denial.
func TestDenialWithoutThresholdsReadsNoClock(t *testing.T) {
	clk := &countingClock{Sim: clock.NewSim(t0)}
	m := NewMonitor(clk)
	const n = 100
	for i := 0; i < n; i++ {
		if fired := m.RecordDenial("mallory"); len(fired) != 0 {
			t.Fatalf("denial %d fired %v with no threshold", i, fired)
		}
	}
	if m.Denials() != n {
		t.Fatalf("Denials = %d, want %d", m.Denials(), n)
	}
	if clk.reads != 0 {
		t.Fatalf("%d clock reads for %d denials with no threshold, want 0", clk.reads, n)
	}
	if err := m.AddThreshold("burst", 1000, time.Minute, "alert"); err != nil {
		t.Fatal(err)
	}
	m.RecordDenial("mallory")
	if clk.reads != 1 {
		t.Fatalf("%d clock reads for one denial under a threshold, want 1", clk.reads)
	}
}
