// Package gtrbac implements the Generalized Temporal RBAC constraints the
// paper enforces with OWTE rules (Section 4.3.2): periodic role enabling
// and disabling driven by <[begin,end], P> expressions, per-activation
// duration bounds (Rule 7) and disabling-time separation of duty
// (Rule 6).
//
// The Manager owns the temporal state machine; it raises per-role
// enable/disable events on the detector so composite events and rules
// can react, and it listens to session activation events to arm
// duration timers. All scheduling goes through the detector's clock, so
// simulated time drives everything in tests and benchmarks.
package gtrbac

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"activerbac/internal/clock"
	"activerbac/internal/event"
	"activerbac/internal/rbac"
)

// Event-name conventions shared with the rule generator.

// EvRoleEnabled names the per-role enabling event (the paper's
// enableRoleSysAdmin() style functions).
func EvRoleEnabled(r rbac.RoleID) string { return "roleEnabled." + string(r) }

// EvRoleDisabled names the per-role disabling event (roleDisableNurse()).
func EvRoleDisabled(r rbac.RoleID) string { return "roleDisabled." + string(r) }

// Global session lifecycle events, raised by the enforcement layer after
// successful activations/deactivations; parameters: "user", "session",
// "role", and optionally "reason".
const (
	EvSessionRoleAdded   = "session.roleAdded"
	EvSessionRoleDropped = "session.roleDropped"
)

// durKey addresses a duration constraint; empty User means any user.
type durKey struct {
	User rbac.UserID
	Role rbac.RoleID
}

// timerKey addresses a pending per-activation timer.
type timerKey struct {
	Session rbac.SessionID
	Role    rbac.RoleID
}

// timeSoD is one disabling-time SoD constraint (Rule 6): within Window,
// the roles in Roles must never be simultaneously disabled.
type timeSoD struct {
	name   string
	roles  []rbac.RoleID
	window clock.Window
}

// schedule is one periodic enable/disable registration.
type schedule struct {
	id     int
	role   rbac.RoleID
	window clock.Window
	timer  clock.Timer
	done   bool
}

// Manager is the GTRBAC constraint engine.
type Manager struct {
	det   *event.Detector
	store *rbac.Store
	clk   clock.Clock

	mu        sync.Mutex
	durations map[durKey]time.Duration
	timers    map[timerKey]clock.Timer
	sods      map[string]*timeSoD
	schedules map[int]*schedule
	schedSeq  int
	expired   uint64 // activations dropped by duration timers
}

// New builds a Manager, registers the session lifecycle events and
// subscribes the duration machinery to them.
func New(det *event.Detector, store *rbac.Store) (*Manager, error) {
	m := &Manager{
		det:       det,
		store:     store,
		clk:       det.Clock(),
		durations: make(map[durKey]time.Duration),
		timers:    make(map[timerKey]clock.Timer),
		sods:      make(map[string]*timeSoD),
		schedules: make(map[int]*schedule),
	}
	for _, ev := range []string{EvSessionRoleAdded, EvSessionRoleDropped} {
		if err := det.DefinePrimitive(ev); err != nil {
			return nil, err
		}
	}
	if _, err := det.Subscribe(EvSessionRoleAdded, m.onActivated); err != nil {
		return nil, err
	}
	if _, err := det.Subscribe(EvSessionRoleDropped, m.onDropped); err != nil {
		return nil, err
	}
	return m, nil
}

// RegisterRole defines the per-role enable/disable events; idempotent.
func (m *Manager) RegisterRole(r rbac.RoleID) error {
	if err := m.det.DefinePrimitive(EvRoleEnabled(r)); err != nil {
		return err
	}
	return m.det.DefinePrimitive(EvRoleDisabled(r))
}

// ---------------------------------------------------------------------------
// Role enabling / disabling with disabling-time SoD

// EnableRole enables r and raises its enabling event.
func (m *Manager) EnableRole(r rbac.RoleID) error {
	if err := m.RegisterRole(r); err != nil {
		return err
	}
	if err := m.store.SetRoleEnabled(r, true); err != nil {
		return err
	}
	return m.det.Raise(EvRoleEnabled(r), event.Params{"role": string(r)})
}

// DisableRole disables r after checking every disabling-time SoD
// constraint (Rule 6): inside a constraint's window, at least one role
// of the set must stay enabled, so disabling the last enabled member is
// denied.
func (m *Manager) DisableRole(r rbac.RoleID) error {
	if err := m.RegisterRole(r); err != nil {
		return err
	}
	if name, ok := m.CanDisable(r); !ok {
		return fmt.Errorf("gtrbac: disabling %q denied by time SoD %q: %w", r, name, rbac.ErrDenied)
	}
	if err := m.store.SetRoleEnabled(r, false); err != nil {
		return err
	}
	return m.det.Raise(EvRoleDisabled(r), event.Params{"role": string(r)})
}

// CanDisable reports whether disabling r now satisfies every
// disabling-time SoD; on denial it names the violated constraint. It is
// the predicate form used by generated rule conditions.
func (m *Manager) CanDisable(r rbac.RoleID) (string, bool) {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, c := range m.sods {
		if !containsRole(c.roles, r) || !c.window.Contains(now) {
			continue
		}
		othersEnabled := false
		for _, other := range c.roles {
			if other != r && m.store.RoleEnabled(other) {
				othersEnabled = true
				break
			}
		}
		if !othersEnabled {
			return name, false
		}
	}
	return "", true
}

func containsRole(roles []rbac.RoleID, r rbac.RoleID) bool {
	for _, x := range roles {
		if x == r {
			return true
		}
	}
	return false
}

// AddDisablingTimeSoD installs a Rule 6 constraint: within window, the
// member roles must never all be disabled at once.
func (m *Manager) AddDisablingTimeSoD(name string, roles []rbac.RoleID, window clock.Window) error {
	if len(roles) < 2 {
		return fmt.Errorf("gtrbac: time SoD %q needs at least 2 roles", name)
	}
	for _, r := range roles {
		if !m.store.RoleExists(r) {
			return fmt.Errorf("gtrbac: time SoD %q references role %q: %w", name, r, rbac.ErrNotFound)
		}
		if err := m.RegisterRole(r); err != nil {
			return err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.sods[name]; dup {
		return fmt.Errorf("gtrbac: time SoD %q: %w", name, rbac.ErrExists)
	}
	m.sods[name] = &timeSoD{name: name, roles: append([]rbac.RoleID(nil), roles...), window: window}
	return nil
}

// RemoveDisablingTimeSoD deletes a Rule 6 constraint.
func (m *Manager) RemoveDisablingTimeSoD(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sods[name]; !ok {
		return fmt.Errorf("gtrbac: time SoD %q: %w", name, rbac.ErrNotFound)
	}
	delete(m.sods, name)
	return nil
}

// TimeSoDs lists the installed disabling-time SoD constraint names.
func (m *Manager) TimeSoDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.sods))
	for n := range m.sods {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Periodic enabling: <[begin,end], P>

// SchedulePeriodic keeps role r enabled exactly within window: it
// enables/disables immediately according to the current instant and
// re-arms a timer for every subsequent window transition. It returns a
// schedule id for Cancel.
func (m *Manager) SchedulePeriodic(r rbac.RoleID, window clock.Window) (int, error) {
	if !m.store.RoleExists(r) {
		return 0, fmt.Errorf("gtrbac: schedule for role %q: %w", r, rbac.ErrNotFound)
	}
	if err := m.RegisterRole(r); err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.schedSeq++
	sc := &schedule{id: m.schedSeq, role: r, window: window}
	m.schedules[sc.id] = sc
	m.mu.Unlock()

	m.applySchedule(sc)
	return sc.id, nil
}

// applySchedule sets the role state for "now" and arms the next
// transition timer.
func (m *Manager) applySchedule(sc *schedule) {
	m.mu.Lock()
	if sc.done {
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()

	now := m.clk.Now()
	inWindow := sc.window.Contains(now)
	var next time.Time
	var ok bool
	if inWindow {
		next, ok = sc.window.NextStop(now)
	} else {
		next, ok = sc.window.NextStart(now)
	}

	// Apply the state transition outside m.mu (raises events).
	if inWindow {
		_ = m.EnableRole(sc.role)
	} else {
		_ = m.disableBySchedule(sc.role)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if sc.done || !ok {
		return
	}
	sc.timer = m.clk.At(next, func() { m.applySchedule(sc) })
}

// disableBySchedule disables without the time-SoD veto being fatal: if
// the veto denies, the role simply stays enabled until re-checked at the
// next transition (availability wins, per the paper's Rule 6 rationale).
func (m *Manager) disableBySchedule(r rbac.RoleID) error {
	if _, ok := m.CanDisable(r); !ok {
		return nil
	}
	if err := m.store.SetRoleEnabled(r, false); err != nil {
		return err
	}
	return m.det.Raise(EvRoleDisabled(r), event.Params{"role": string(r)})
}

// CancelSchedule stops a periodic schedule; the role keeps its current
// enabled state.
func (m *Manager) CancelSchedule(id int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sc, ok := m.schedules[id]
	if !ok {
		return fmt.Errorf("gtrbac: schedule %d: %w", id, rbac.ErrNotFound)
	}
	sc.done = true
	if sc.timer != nil {
		sc.timer.Stop()
	}
	delete(m.schedules, id)
	return nil
}

// ---------------------------------------------------------------------------
// Per-activation duration constraints (Rule 7)

// SetActivationDuration bounds every activation of role r to d,
// optionally restricted to one user (the paper's per user-role duration;
// empty user means the bound applies to all users). d <= 0 removes the
// constraint.
func (m *Manager) SetActivationDuration(u rbac.UserID, r rbac.RoleID, d time.Duration) error {
	if !m.store.RoleExists(r) {
		return fmt.Errorf("gtrbac: duration for role %q: %w", r, rbac.ErrNotFound)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := durKey{User: u, Role: r}
	if d <= 0 {
		delete(m.durations, k)
		return nil
	}
	m.durations[k] = d
	return nil
}

// durationFor resolves the tightest duration bound for (u, r): a
// user-specific bound wins over the role-wide one.
func (m *Manager) durationFor(u rbac.UserID, r rbac.RoleID) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d, ok := m.durations[durKey{User: u, Role: r}]; ok {
		return d, true
	}
	d, ok := m.durations[durKey{Role: r}]
	return d, ok
}

// onActivated arms a deactivation timer when a bounded role is
// activated (the PLUS event of Rule 7, started only after the role is
// actually active).
func (m *Manager) onActivated(o *event.Occurrence) {
	u := rbac.UserID(stringParam(o, "user"))
	sid := rbac.SessionID(stringParam(o, "session"))
	r := rbac.RoleID(stringParam(o, "role"))
	if sid == "" || r == "" {
		return
	}
	d, ok := m.durationFor(u, r)
	if !ok {
		return
	}
	k := timerKey{Session: sid, Role: r}
	m.mu.Lock()
	if old, ok := m.timers[k]; ok {
		old.Stop()
	}
	m.timers[k] = m.clk.AfterFunc(d, func() { m.expire(k, u) })
	m.mu.Unlock()
}

// expire force-deactivates a role whose duration elapsed and raises the
// drop event with reason "duration-expired".
func (m *Manager) expire(k timerKey, u rbac.UserID) {
	m.mu.Lock()
	if _, ok := m.timers[k]; !ok {
		m.mu.Unlock()
		return // dropped manually in the meantime
	}
	delete(m.timers, k)
	m.mu.Unlock()

	if !m.store.CheckSessionRole(k.Session, k.Role) {
		return
	}
	if err := m.store.RawDropSessionRole(k.Session, k.Role); err != nil {
		return
	}
	m.mu.Lock()
	m.expired++
	m.mu.Unlock()
	_ = m.det.Raise(EvSessionRoleDropped, event.Params{
		"user":    string(u),
		"session": string(k.Session),
		"role":    string(k.Role),
		"reason":  "duration-expired",
	})
}

// onDropped cancels the pending timer when a bounded role is dropped
// before its deadline.
func (m *Manager) onDropped(o *event.Occurrence) {
	if stringParam(o, "reason") == "duration-expired" {
		return // our own notification
	}
	k := timerKey{
		Session: rbac.SessionID(stringParam(o, "session")),
		Role:    rbac.RoleID(stringParam(o, "role")),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.timers[k]; ok {
		t.Stop()
		delete(m.timers, k)
	}
}

// Expired reports how many activations were force-deactivated by
// duration timers.
func (m *Manager) Expired() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.expired
}

func stringParam(o *event.Occurrence, key string) string {
	if o == nil || o.Params == nil {
		return ""
	}
	s, _ := o.Params[key].(string)
	return s
}
