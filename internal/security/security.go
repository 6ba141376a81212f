// Package security implements the paper's *active security* (Section
// 4.3.3): monitoring the stream of authorization outcomes for malicious
// patterns — e.g. repeated denied access requests within a time window —
// and reacting without human intervention by alerting administrators,
// locking users, or disabling critical rules.
//
// The Monitor keeps one sliding window per (threshold, subject); when a
// subject accumulates Count denials within Window, the threshold fires:
// an Alert is recorded, every alert listener runs, and the response
// registered for the threshold's action executes. The window is cleared
// on firing so one burst produces one alert.
package security

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"activerbac/internal/clock"
)

// Alert is one fired threshold.
type Alert struct {
	// Threshold names the configuration that fired.
	Threshold string
	// Subject is the entity the denials accumulated against (a user).
	Subject string
	// Count is the number of denials in the window at firing time.
	Count int
	// Window is the configured window.
	Window time.Duration
	// Action is the configured response name.
	Action string
	// At is the firing instant.
	At time.Time
}

// String renders the alert for logs.
func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s: %d denials within %s -> %s",
		a.At.Format("15:04:05"), a.Subject, a.Count, a.Window, a.Action)
}

// Response executes a configured reaction (lock the user, disable
// rules, page the administrator). Responses run synchronously on the
// goroutine that recorded the crossing denial and must not block.
type Response func(Alert)

// threshold is one configured detection rule.
type threshold struct {
	name   string
	count  int
	window time.Duration
	action string
	// hits holds per-subject denial timestamps, pruned to the window.
	hits map[string][]time.Time
}

// Monitor watches denial streams against configured thresholds.
type Monitor struct {
	clk clock.Clock

	mu         sync.Mutex
	thresholds map[string]*threshold
	responses  map[string]Response
	listeners  []func(Alert)
	alerts     []Alert
	denials    uint64
}

// NewMonitor returns an empty monitor on clk.
func NewMonitor(clk clock.Clock) *Monitor {
	return &Monitor{
		clk:        clk,
		thresholds: make(map[string]*threshold),
		responses:  make(map[string]Response),
	}
}

// AddThreshold installs a detection rule: count denials within window
// trigger the named action.
func (m *Monitor) AddThreshold(name string, count int, window time.Duration, action string) error {
	if name == "" {
		return fmt.Errorf("security: threshold with empty name")
	}
	if count < 1 {
		return fmt.Errorf("security: threshold %q: count %d < 1", name, count)
	}
	if window <= 0 {
		return fmt.Errorf("security: threshold %q: window %v <= 0", name, window)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.thresholds[name]; dup {
		return fmt.Errorf("security: threshold %q already exists", name)
	}
	m.thresholds[name] = &threshold{
		name: name, count: count, window: window, action: action,
		hits: make(map[string][]time.Time),
	}
	return nil
}

// RemoveThreshold uninstalls a detection rule.
func (m *Monitor) RemoveThreshold(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.thresholds[name]; !ok {
		return fmt.Errorf("security: threshold %q not found", name)
	}
	delete(m.thresholds, name)
	return nil
}

// Thresholds lists installed threshold names, sorted.
func (m *Monitor) Thresholds() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.thresholds))
	for n := range m.thresholds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterResponse binds an action name (as used in AddThreshold) to a
// response. Unknown actions fire alerts but run no response.
func (m *Monitor) RegisterResponse(action string, r Response) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.responses[action] = r
}

// OnAlert registers a listener invoked for every fired alert.
func (m *Monitor) OnAlert(fn func(Alert)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners = append(m.listeners, fn)
}

// RecordDenial feeds one denied request by subject into every threshold
// and fires the ones whose windows fill. It returns the alerts fired
// (usually none). Only a monitor with thresholds reads the clock.
func (m *Monitor) RecordDenial(subject string) []Alert {
	var fired []Alert

	m.mu.Lock()
	m.denials++
	var now time.Time
	if len(m.thresholds) > 0 {
		now = m.clk.Now()
	}
	for _, th := range m.thresholds {
		hits := append(th.hits[subject], now)
		// Prune to the window.
		cut := now.Add(-th.window)
		for len(hits) > 0 && hits[0].Before(cut) {
			hits = hits[1:]
		}
		if len(hits) >= th.count {
			fired = append(fired, Alert{
				Threshold: th.name, Subject: subject, Count: len(hits),
				Window: th.window, Action: th.action, At: now,
			})
			delete(th.hits, subject) // one alert per burst
		} else {
			th.hits[subject] = hits
		}
	}
	var listeners []func(Alert)
	responses := make([]Response, 0, len(fired))
	if len(fired) > 0 {
		m.alerts = append(m.alerts, fired...)
		listeners = append(listeners, m.listeners...)
		for _, a := range fired {
			responses = append(responses, m.responses[a.Action])
		}
	}
	m.mu.Unlock()

	for i, a := range fired {
		for _, l := range listeners {
			l(a)
		}
		if responses[i] != nil {
			responses[i](a)
		}
	}
	return fired
}

// Alerts returns a copy of every fired alert in firing order.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// Denials reports the total denial count recorded.
func (m *Monitor) Denials() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.denials
}
