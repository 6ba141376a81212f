package clock

import "time"

// Only this package's tests call the declarations below, so they
// live beside the tests (rbacvet's unused pass keeps it that way).

// Pending returns the number of timers that are scheduled and not yet
// fired or stopped.
func (s *Sim) Pending() int {
	s.mtx.Lock()
	defer s.mtx.Unlock()
	n := 0
	for _, t := range s.pq {
		if !t.stopped {
			n++
		}
	}
	return n
}

// RunUntilIdle fires timers (advancing time as needed) until no pending
// timer remains or limit callbacks have run. It returns the number fired.
// A limit <= 0 means no limit beyond an internal safety bound.
func (s *Sim) RunUntilIdle(limit int) int {
	const safety = 1 << 22
	if limit <= 0 || limit > safety {
		limit = safety
	}
	fired := 0
	for fired < limit {
		next, ok := s.NextDeadline()
		if !ok {
			break
		}
		fired += s.AdvanceTo(next)
	}
	return fired
}

// Matches reports whether instant t (truncated to whole seconds) belongs
// to the pattern's instant set.
func (p Pattern) Matches(t time.Time) bool {
	match := func(pat, v int) bool { return pat == Wild || pat == v }
	return match(p.Hour, t.Hour()) &&
		match(p.Min, t.Minute()) &&
		match(p.Sec, t.Second()) &&
		match(p.Month, int(t.Month())) &&
		match(p.Day, t.Day()) &&
		match(p.Year, t.Year())
}

// NextDeadline reports the instant of the earliest pending timer. ok is
// false when no timer is pending.
func (s *Sim) NextDeadline() (t time.Time, ok bool) {
	s.mtx.Lock()
	defer s.mtx.Unlock()
	for _, tm := range s.pq {
		if tm.stopped {
			continue
		}
		if !ok || tm.when.Before(t) {
			t, ok = tm.when, true
		}
	}
	return t, ok
}
