package obs

import (
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// Sampler decides, per decision, whether a cascade trace should be
// recorded: a probabilistic coin flip (rate) bounded by a per-second
// budget (limit), so production can keep tracing always-on at ~1%
// without a traffic spike flooding the trace ring. An Observer with a
// nil Sampler traces every decision (the pre-sampling behaviour).
//
// Sample is clock-agnostic: callers pass the decision's start instant,
// so inside the engine the rate limiter runs on the engine clock (the
// engineclock vet discipline) and simulated time in tests drives the
// budget window deterministically.
type Sampler struct {
	threshold uint64 // admit when next rand63 < threshold; 1<<63 = always
	limit     uint64 // max admitted per second; 0 = unbounded

	// Rate-limit window: the unix second being counted and the count of
	// traces admitted within it. CAS on window resets the count.
	window atomic.Int64
	count  atomic.Uint64
}

// NewSampler builds a sampler admitting traces with probability rate
// (clamped to [0,1]) and at most limit traces per second (0 = no cap).
func NewSampler(rate float64, limit float64) *Sampler {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s := &Sampler{threshold: uint64(rate * (1 << 63))}
	if limit > 0 {
		s.limit = uint64(limit)
		if s.limit == 0 {
			s.limit = 1
		}
	}
	return s
}

// Sample reports whether a decision beginning at now should be traced.
// Safe for concurrent use; lock-free.
func (s *Sampler) Sample(now time.Time) bool {
	if s.threshold == 0 {
		return false
	}
	// The draw runs on the cache-hit fast path of every decision, so it
	// must touch no shared memory: rand/v2's top-level source draws from
	// per-thread runtime state, where a sampler-owned atomic counter —
	// even a single contended Add, let alone a CAS loop — puts one cache
	// line into exclusive-ownership ping-pong across every checking core
	// and taxes the very load sampling exists to survive.
	if rand.Uint64()>>1 >= s.threshold {
		return false
	}
	if s.limit == 0 {
		return true
	}
	// Approximate fixed-window budget: the first caller to observe a new
	// second swings the window and resets the count. Racing resetters can
	// leak a few extra admits across the boundary — a bounded error that
	// keeps the limiter a pair of atomics instead of a lock.
	sec := now.Unix()
	if old := s.window.Load(); old != sec {
		if s.window.CompareAndSwap(old, sec) {
			s.count.Store(0)
		}
	}
	return s.count.Add(1) <= s.limit
}
