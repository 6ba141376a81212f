package gtrbac

import (
	"errors"
	"testing"
	"time"

	"activerbac/internal/clock"
	"activerbac/internal/event"
	"activerbac/internal/rbac"
)

// Fixtures start at 09:00 so the 10:00-17:00 hospital window opens an
// hour in.
var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func newFixture(t *testing.T) (*Manager, *rbac.Store, *event.Detector, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(t0)
	det := event.New(sim)
	store := rbac.NewStore()
	m, err := New(det, store)
	if err != nil {
		t.Fatal(err)
	}
	return m, store, det, sim
}

func addRole(t *testing.T, store *rbac.Store, r rbac.RoleID) {
	t.Helper()
	if err := store.AddRole(r); err != nil {
		t.Fatal(err)
	}
}

func hospitalWindow(t *testing.T) clock.Window {
	t.Helper()
	w, err := clock.ParseWindow("10:00:00/*/*/*", "17:00:00/*/*/*", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestEnableDisableRaisesEvents(t *testing.T) {
	m, store, det, _ := newFixture(t)
	addRole(t, store, "Nurse")
	if err := m.RegisterRole("Nurse"); err != nil {
		t.Fatal(err)
	}
	var enabled, disabled int
	if _, err := det.Subscribe(EvRoleEnabled("Nurse"), func(*event.Occurrence) { enabled++ }); err != nil {
		t.Fatal(err)
	}
	if _, err := det.Subscribe(EvRoleDisabled("Nurse"), func(*event.Occurrence) { disabled++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.DisableRole("Nurse"); err != nil {
		t.Fatal(err)
	}
	if store.RoleEnabled("Nurse") {
		t.Fatal("role enabled after DisableRole")
	}
	if err := m.EnableRole("Nurse"); err != nil {
		t.Fatal(err)
	}
	if !store.RoleEnabled("Nurse") {
		t.Fatal("role disabled after EnableRole")
	}
	if enabled != 1 || disabled != 1 {
		t.Fatalf("events enabled=%d disabled=%d", enabled, disabled)
	}
}

// --------------------------------------------------------------------------
// Rule 6: disabling-time SoD

func TestDisablingTimeSoD(t *testing.T) {
	m, store, _, sim := newFixture(t)
	addRole(t, store, "Nurse")
	addRole(t, store, "Doctor")
	if err := m.AddDisablingTimeSoD("ward", []rbac.RoleID{"Nurse", "Doctor"}, hospitalWindow(t)); err != nil {
		t.Fatal(err)
	}

	// 09:00, outside the window: both may be disabled.
	if err := m.DisableRole("Nurse"); err != nil {
		t.Fatal(err)
	}
	if err := m.DisableRole("Doctor"); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableRole("Nurse"); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableRole("Doctor"); err != nil {
		t.Fatal(err)
	}

	// Inside the window: disabling one is fine, disabling the second is
	// vetoed while the first is still disabled.
	sim.AdvanceTo(time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC))
	if err := m.DisableRole("Doctor"); err != nil {
		t.Fatal(err)
	}
	err := m.DisableRole("Nurse")
	if !errors.Is(err, rbac.ErrDenied) {
		t.Fatalf("second disable inside window: %v, want ErrDenied", err)
	}
	if name, ok := m.CanDisable("Nurse"); ok || name != "ward" {
		t.Fatalf("CanDisable = %q,%v", name, ok)
	}
	// Re-enabling Doctor frees Nurse.
	if err := m.EnableRole("Doctor"); err != nil {
		t.Fatal(err)
	}
	if err := m.DisableRole("Nurse"); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSoDValidation(t *testing.T) {
	m, store, _, _ := newFixture(t)
	addRole(t, store, "a")
	addRole(t, store, "b")
	w := hospitalWindow(t)
	if err := m.AddDisablingTimeSoD("x", []rbac.RoleID{"a"}, w); err == nil {
		t.Fatal("single-role set accepted")
	}
	if err := m.AddDisablingTimeSoD("x", []rbac.RoleID{"a", "ghost"}, w); !errors.Is(err, rbac.ErrNotFound) {
		t.Fatalf("unknown role: %v", err)
	}
	if err := m.AddDisablingTimeSoD("x", []rbac.RoleID{"a", "b"}, w); err != nil {
		t.Fatal(err)
	}
	if err := m.AddDisablingTimeSoD("x", []rbac.RoleID{"a", "b"}, w); !errors.Is(err, rbac.ErrExists) {
		t.Fatalf("duplicate: %v", err)
	}
	if got := m.TimeSoDs(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("TimeSoDs = %v", got)
	}
	if err := m.RemoveDisablingTimeSoD("x"); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveDisablingTimeSoD("x"); !errors.Is(err, rbac.ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
}

// --------------------------------------------------------------------------
// Periodic enabling

func TestSchedulePeriodic(t *testing.T) {
	m, store, _, sim := newFixture(t)
	addRole(t, store, "DayDoctor")
	if _, err := m.SchedulePeriodic("DayDoctor", hospitalWindow(t)); err != nil {
		t.Fatal(err)
	}
	// 09:00: outside the window, the schedule disables immediately.
	if store.RoleEnabled("DayDoctor") {
		t.Fatal("role enabled outside window at schedule time")
	}
	// Crossing 10:00 enables.
	sim.AdvanceTo(time.Date(2026, 7, 6, 10, 0, 0, 0, time.UTC))
	if !store.RoleEnabled("DayDoctor") {
		t.Fatal("role not enabled at window start")
	}
	// Crossing 17:00 disables.
	sim.AdvanceTo(time.Date(2026, 7, 6, 17, 0, 0, 0, time.UTC))
	if store.RoleEnabled("DayDoctor") {
		t.Fatal("role not disabled at window stop")
	}
	// Next day re-enables.
	sim.AdvanceTo(time.Date(2026, 7, 7, 10, 0, 0, 0, time.UTC))
	if !store.RoleEnabled("DayDoctor") {
		t.Fatal("role not re-enabled next day")
	}
}

func TestSchedulePeriodicShiftChange(t *testing.T) {
	// The paper's policy-change scenario: shift moves from 8-16 to 9-17.
	// Cancel the old schedule, install the new one.
	m, store, _, sim := newFixture(t)
	addRole(t, store, "DayDoctor")
	w1, err := clock.ParseWindow("08:00:00/*/*/*", "16:00:00/*/*/*", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.SchedulePeriodic("DayDoctor", w1)
	if err != nil {
		t.Fatal(err)
	}
	// 09:00 is inside 8-16.
	if !store.RoleEnabled("DayDoctor") {
		t.Fatal("role not enabled under old shift")
	}
	if err := m.CancelSchedule(id); err != nil {
		t.Fatal(err)
	}
	if err := m.CancelSchedule(id); !errors.Is(err, rbac.ErrNotFound) {
		t.Fatalf("double cancel: %v", err)
	}
	w2, err := clock.ParseWindow("09:00:00/*/*/*", "17:00:00/*/*/*", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SchedulePeriodic("DayDoctor", w2); err != nil {
		t.Fatal(err)
	}
	sim.AdvanceTo(time.Date(2026, 7, 6, 16, 30, 0, 0, time.UTC))
	if !store.RoleEnabled("DayDoctor") {
		t.Fatal("16:30 should be inside the new shift")
	}
	sim.AdvanceTo(time.Date(2026, 7, 6, 17, 0, 0, 0, time.UTC))
	if store.RoleEnabled("DayDoctor") {
		t.Fatal("17:00 should end the new shift")
	}
}

func TestScheduleNightShift(t *testing.T) {
	// The night-nurse shift wraps midnight: 22:00-06:00.
	m, store, _, sim := newFixture(t) // starts 09:00
	addRole(t, store, "NightNurse")
	w, err := clock.ParseWindow("22:00:00/*/*/*", "06:00:00/*/*/*", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SchedulePeriodic("NightNurse", w); err != nil {
		t.Fatal(err)
	}
	if store.RoleEnabled("NightNurse") {
		t.Fatal("night shift enabled at 09:00")
	}
	sim.AdvanceTo(time.Date(2026, 7, 6, 22, 0, 0, 0, time.UTC))
	if !store.RoleEnabled("NightNurse") {
		t.Fatal("night shift not enabled at 22:00")
	}
	sim.AdvanceTo(time.Date(2026, 7, 7, 1, 0, 0, 0, time.UTC))
	if !store.RoleEnabled("NightNurse") {
		t.Fatal("night shift disabled across midnight")
	}
	sim.AdvanceTo(time.Date(2026, 7, 7, 6, 0, 0, 0, time.UTC))
	if store.RoleEnabled("NightNurse") {
		t.Fatal("night shift still enabled at 06:00")
	}
	sim.AdvanceTo(time.Date(2026, 7, 7, 22, 0, 0, 0, time.UTC))
	if !store.RoleEnabled("NightNurse") {
		t.Fatal("night shift not re-enabled the next evening")
	}
}

func TestScheduleUnknownRole(t *testing.T) {
	m, _, _, _ := newFixture(t)
	if _, err := m.SchedulePeriodic("ghost", hospitalWindow(t)); !errors.Is(err, rbac.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// --------------------------------------------------------------------------
// Rule 7: per-activation duration

func activationFixture(t *testing.T) (*Manager, *rbac.Store, *event.Detector, *clock.Sim, rbac.SessionID) {
	t.Helper()
	m, store, det, sim := newFixture(t)
	addRole(t, store, "R3")
	if err := store.AddUser("bob"); err != nil {
		t.Fatal(err)
	}
	if err := store.AssignUser("bob", "R3"); err != nil {
		t.Fatal(err)
	}
	sid, err := store.CreateSession("bob")
	if err != nil {
		t.Fatal(err)
	}
	return m, store, det, sim, sid
}

// activate mimics the enforcement layer: mutate state then raise the
// lifecycle event.
func activate(t *testing.T, store *rbac.Store, det *event.Detector, sid rbac.SessionID, r rbac.RoleID) {
	t.Helper()
	if err := store.AddActiveRole("bob", sid, r); err != nil {
		t.Fatal(err)
	}
	if err := det.Raise(EvSessionRoleAdded, event.Params{
		"user": "bob", "session": string(sid), "role": string(r),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationDeactivates(t *testing.T) {
	m, store, det, sim, sid := activationFixture(t)
	if err := m.SetActivationDuration("bob", "R3", 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	activate(t, store, det, sid, "R3")
	if m.PendingTimers() != 1 {
		t.Fatalf("PendingTimers = %d", m.PendingTimers())
	}
	sim.Advance(time.Hour)
	if !store.CheckSessionRole(sid, "R3") {
		t.Fatal("deactivated early")
	}
	sim.Advance(time.Hour)
	if store.CheckSessionRole(sid, "R3") {
		t.Fatal("not deactivated after duration")
	}
	if m.Expired() != 1 {
		t.Fatalf("Expired = %d", m.Expired())
	}
	if m.PendingTimers() != 0 {
		t.Fatalf("PendingTimers = %d after expiry", m.PendingTimers())
	}
}

func TestDurationExpiredEventCarriesReason(t *testing.T) {
	m, store, det, sim, sid := activationFixture(t)
	if err := m.SetActivationDuration("", "R3", time.Minute); err != nil {
		t.Fatal(err)
	}
	var drops []*event.Occurrence
	if _, err := det.Subscribe(EvSessionRoleDropped, func(o *event.Occurrence) { drops = append(drops, o) }); err != nil {
		t.Fatal(err)
	}
	activate(t, store, det, sid, "R3")
	sim.Advance(2 * time.Minute)
	if len(drops) != 1 || drops[0].Params["reason"] != "duration-expired" {
		t.Fatalf("drops = %v", drops)
	}
	_ = m
}

func TestManualDropCancelsTimer(t *testing.T) {
	m, store, det, sim, sid := activationFixture(t)
	if err := m.SetActivationDuration("bob", "R3", time.Hour); err != nil {
		t.Fatal(err)
	}
	activate(t, store, det, sid, "R3")
	// Manual deactivation before the deadline.
	if err := store.DropActiveRole("bob", sid, "R3"); err != nil {
		t.Fatal(err)
	}
	if err := det.Raise(EvSessionRoleDropped, event.Params{
		"user": "bob", "session": string(sid), "role": "R3",
	}); err != nil {
		t.Fatal(err)
	}
	if m.PendingTimers() != 0 {
		t.Fatalf("PendingTimers = %d after manual drop", m.PendingTimers())
	}
	sim.Advance(2 * time.Hour)
	if m.Expired() != 0 {
		t.Fatalf("Expired = %d, want 0", m.Expired())
	}
}

func TestUserSpecificDurationWins(t *testing.T) {
	m, store, det, sim, sid := activationFixture(t)
	if err := m.SetActivationDuration("", "R3", 10*time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := m.SetActivationDuration("bob", "R3", time.Minute); err != nil {
		t.Fatal(err)
	}
	activate(t, store, det, sid, "R3")
	sim.Advance(2 * time.Minute)
	if store.CheckSessionRole(sid, "R3") {
		t.Fatal("user-specific bound not applied")
	}
}

func TestDurationRemoval(t *testing.T) {
	m, store, det, sim, sid := activationFixture(t)
	if err := m.SetActivationDuration("bob", "R3", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := m.SetActivationDuration("bob", "R3", 0); err != nil {
		t.Fatal(err)
	}
	activate(t, store, det, sid, "R3")
	sim.Advance(time.Hour)
	if !store.CheckSessionRole(sid, "R3") {
		t.Fatal("removed duration still enforced")
	}
	if err := m.SetActivationDuration("bob", "ghost", time.Minute); !errors.Is(err, rbac.ErrNotFound) {
		t.Fatalf("unknown role: %v", err)
	}
}

// --------------------------------------------------------------------------
// Triggers
//
// A TRBAC role trigger ("when roleEnabled.SysAdmin occurs, enable
// SysAudit") needs no API of its own: a subscription on the event that
// calls back into the Manager is one. These tests pin what such a
// trigger relies on — the Manager's events, and Manager calls made from
// a handler or a timer.

// trigger subscribes fn to on and counts its firings.
func trigger(t *testing.T, det *event.Detector, on string, fn func()) *int {
	t.Helper()
	fired := new(int)
	if _, err := det.Subscribe(on, func(*event.Occurrence) { *fired++; fn() }); err != nil {
		t.Fatal(err)
	}
	return fired
}

func TestTriggerEnable(t *testing.T) {
	// Rule 8 shape: enabling SysAdmin enables SysAudit.
	m, store, det, _ := newFixture(t)
	addRole(t, store, "SysAdmin")
	addRole(t, store, "SysAudit")
	if err := store.SetRoleEnabled("SysAudit", false); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterRole("SysAdmin"); err != nil {
		t.Fatal(err)
	}
	fired := trigger(t, det, EvRoleEnabled("SysAdmin"), func() { _ = m.EnableRole("SysAudit") })
	if err := m.EnableRole("SysAdmin"); err != nil {
		t.Fatal(err)
	}
	if !store.RoleEnabled("SysAudit") {
		t.Fatal("trigger did not enable SysAudit")
	}
	if *fired != 1 {
		t.Fatalf("trigger fired %d times", *fired)
	}
}

func TestTriggerDisableWithDelay(t *testing.T) {
	m, store, det, sim := newFixture(t)
	addRole(t, store, "Nurse")
	if err := det.DefinePrimitive("shiftEnd"); err != nil {
		t.Fatal(err)
	}
	trigger(t, det, "shiftEnd", func() {
		sim.AfterFunc(15*time.Minute, func() { _ = m.DisableRole("Nurse") })
	})
	if err := det.Raise("shiftEnd", nil); err != nil {
		t.Fatal(err)
	}
	if !store.RoleEnabled("Nurse") {
		t.Fatal("delayed trigger fired immediately")
	}
	sim.Advance(15 * time.Minute)
	if store.RoleEnabled("Nurse") {
		t.Fatal("delayed trigger never fired")
	}
}

func TestTriggerChain(t *testing.T) {
	// Cascading triggers: enabling A enables B, which enables C.
	m, store, det, _ := newFixture(t)
	for _, r := range []rbac.RoleID{"A", "B", "C"} {
		addRole(t, store, r)
		if err := store.SetRoleEnabled(r, false); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterRole(r); err != nil {
			t.Fatal(err)
		}
	}
	trigger(t, det, EvRoleEnabled("A"), func() { _ = m.EnableRole("B") })
	trigger(t, det, EvRoleEnabled("B"), func() { _ = m.EnableRole("C") })
	if err := m.EnableRole("A"); err != nil {
		t.Fatal(err)
	}
	if !store.RoleEnabled("B") || !store.RoleEnabled("C") {
		t.Fatalf("chain: B=%v C=%v", store.RoleEnabled("B"), store.RoleEnabled("C"))
	}
}
