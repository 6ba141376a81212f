// Package clock provides the time substrate for the active authorization
// system: an abstract Clock that can be backed either by the operating
// system's wall clock or by a deterministic simulated clock, plus the
// Generalized Temporal RBAC periodic expressions ("24h:mi:ss/mm/dd/yyyy"
// calendar patterns and <[begin,end], P> intervals) used by temporal
// constraints.
//
// Every temporal event operator in the event engine (PLUS, PERIODIC,
// absolute events) schedules through a Clock, so experiments that would
// need hours of wall time in the paper's Sentinel+ prototype run in
// microseconds of simulated time while exercising the same code paths.
package clock

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// Timer is a handle to a pending callback scheduled on a Clock.
type Timer interface {
	// Stop cancels the timer. It reports whether the timer was still
	// pending (true) or had already fired or been stopped (false).
	Stop() bool
}

// Clock abstracts the passage of time. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// AfterFunc schedules fn to run once d has elapsed.
	AfterFunc(d time.Duration, fn func()) Timer
	// At schedules fn to run at instant t. If t is not after Now, fn is
	// scheduled to run immediately (but never synchronously inside At).
	At(t time.Time, fn func()) Timer
}

// ---------------------------------------------------------------------------
// Real clock

// Real is a Clock backed by the operating system clock.
type Real struct{}

// NewReal returns a Clock backed by the operating system clock.
func NewReal() *Real { return &Real{} }

// Now implements Clock.
func (*Real) Now() time.Time { return time.Now() }

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

// AfterFunc implements Clock.
func (*Real) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{time.AfterFunc(d, fn)}
}

// At implements Clock.
func (c *Real) At(t time.Time, fn func()) Timer {
	d := time.Until(t)
	if d < 0 {
		d = 0
	}
	return realTimer{time.AfterFunc(d, fn)}
}

// ---------------------------------------------------------------------------
// Simulated clock

// simTimer is one pending callback in a Sim clock.
type simTimer struct {
	when    time.Time
	seq     uint64 // tie-break so equal instants fire in schedule order
	fn      func()
	stopped bool
	index   int         // heap index; -2 once fired
	owner   *sync.Mutex // the owning Sim's mutex, guards stopped/index
}

func (t *simTimer) Stop() bool {
	t.owner.Lock()
	defer t.owner.Unlock()
	if t.stopped || t.index == -2 {
		return false
	}
	t.stopped = true
	return true
}

// Sim is a deterministic simulated Clock. Time only moves when Advance or
// AdvanceTo is called; due callbacks run synchronously inside Advance, on
// the caller's goroutine, in timestamp order (FIFO among equal
// timestamps). Callbacks may schedule further timers, including timers
// due within the window being advanced over.
type Sim struct {
	mtx sync.Mutex
	now time.Time
	pq  timerQueue
	seq uint64

	// nowA mirrors now so Now() is a single atomic load on the hot
	// path (Decide reads the clock per decision). Writers update it
	// under mtx; the published *time.Time is never mutated.
	nowA atomic.Pointer[time.Time]
}

// NewSim returns a simulated clock whose current instant is start.
func NewSim(start time.Time) *Sim {
	s := &Sim{now: start}
	s.nowA.Store(&start)
	return s
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	return *s.nowA.Load()
}

// setNowLocked advances the canonical instant and republishes the
// lock-free mirror. Callers hold mtx.
func (s *Sim) setNowLocked(t time.Time) {
	s.now = t
	s.nowA.Store(&t)
}

// AfterFunc implements Clock.
func (s *Sim) AfterFunc(d time.Duration, fn func()) Timer {
	s.mtx.Lock()
	defer s.mtx.Unlock()
	return s.scheduleLocked(s.now.Add(d), fn)
}

// At implements Clock.
func (s *Sim) At(t time.Time, fn func()) Timer {
	s.mtx.Lock()
	defer s.mtx.Unlock()
	if t.Before(s.now) {
		t = s.now
	}
	return s.scheduleLocked(t, fn)
}

func (s *Sim) scheduleLocked(when time.Time, fn func()) Timer {
	s.seq++
	t := &simTimer{when: when, seq: s.seq, fn: fn, owner: &s.mtx}
	heap.Push(&s.pq, t)
	return t
}

// Advance moves simulated time forward by d, firing every timer that
// falls due in (now, now+d] in order. It returns the number of callbacks
// fired.
func (s *Sim) Advance(d time.Duration) int {
	s.mtx.Lock()
	target := s.now.Add(d)
	s.mtx.Unlock()
	return s.AdvanceTo(target)
}

// AdvanceTo moves simulated time forward to target (no-op if target is
// not after the current instant), firing due timers in order. It returns
// the number of callbacks fired.
func (s *Sim) AdvanceTo(target time.Time) int {
	fired := 0
	for {
		s.mtx.Lock()
		if len(s.pq) == 0 || s.pq[0].when.After(target) {
			if target.After(s.now) {
				s.setNowLocked(target)
			}
			s.mtx.Unlock()
			return fired
		}
		t := heap.Pop(&s.pq).(*simTimer)
		t.index = -2 // mark fired for Stop
		if t.stopped {
			s.mtx.Unlock()
			continue
		}
		if t.when.After(s.now) {
			s.setNowLocked(t.when)
		}
		fn := t.fn
		s.mtx.Unlock()
		fn()
		fired++
	}
}

// ---------------------------------------------------------------------------
// Timer heap

type timerQueue []*simTimer

func (q timerQueue) Len() int { return len(q) }

func (q timerQueue) Less(i, j int) bool {
	if !q[i].when.Equal(q[j].when) {
		return q[i].when.Before(q[j].when)
	}
	return q[i].seq < q[j].seq
}

func (q timerQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *timerQueue) Push(x any) {
	t := x.(*simTimer)
	t.index = len(*q)
	*q = append(*q, t)
}

func (q *timerQueue) Pop() any {
	old := *q
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return t
}
