package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// tally counts what a loop did. attempted and failed are operations (a
// batch frame is one operation); decided and wrong are verdicts.
type tally struct {
	attempted, failed int64
	decided, wrong    int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.decided += o.decided
	t.wrong += o.wrong
}

// loopResult is one phase of load.
type loopResult struct {
	tally
	samples []sample
	elapsed time.Duration
	// Open loop only: how late each request left the generator, and how
	// many of the scheduled requests were sent at all.
	late      []time.Duration
	scheduled int64
}

// closedLoop runs callers goroutines that each call op back to back
// until d has passed: a caller sends its next request only after the
// previous answer, so a slow server receives less load. op reports the
// verdicts it decided and how many of them were wrong; an error fails
// the operation.
func closedLoop(callers int, d time.Duration, op func(caller int) (decided, wrong int64, err error)) loopResult {
	results := make([]loopResult, callers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				decided, wrong, err := op(c)
				r.attempted++
				if err != nil {
					r.failed++
					continue
				}
				r.decided += decided
				r.wrong += wrong
				r.samples = append(r.samples, sample{at: t0.Sub(start), lat: time.Since(t0)})
			}
		}(c)
	}
	wg.Wait()
	out := loopResult{elapsed: time.Since(start)}
	for i := range results {
		out.tally.add(results[i].tally)
		out.samples = append(out.samples, results[i].samples...)
	}
	return out
}

// openGrace is how long past the end of the schedule the open loop
// keeps sending what is still due; anything left then was never sent.
const openGrace = 2 * time.Second

// openBurst requests fall due together, one burst every openBurst/rate
// seconds. Arrivals in small bursts are as legitimate an open loop as
// evenly spaced ones (a gateway fanning out one user action), and they
// keep the pacer's wake-ups three orders of magnitude below the request
// rate.
const openBurst = 8

// openLoop sends rate requests per second for d on a fixed schedule,
// whatever the server does: request i is due at start +
// (i/openBurst + 1)·openBurst/rate, and its latency runs from that due
// time, so a stall is charged to every request it delayed, not only to
// the one that was in flight. workers bounds the requests in flight;
// when all are busy the pacer waits, and what it then sends late is
// still timed from when it was due.
func openLoop(rate float64, d time.Duration, workers int, op func(i int64) (decided, wrong int64, err error)) (loopResult, error) {
	n := int64(rate * d.Seconds())
	interval := time.Duration(float64(openBurst) * float64(time.Second) / rate)
	tick, err := newTicker(interval)
	if err != nil {
		return loopResult{}, err
	}
	defer tick.close()
	results := make([]loopResult, workers)
	work := make(chan int64, workers) // one slot per worker: a full channel means every worker is busy
	start := tick.armed
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(r *loopResult) {
			defer wg.Done()
			for i := range work {
				due := start.Add(time.Duration(i/openBurst+1) * interval)
				r.late = append(r.late, time.Since(due))
				decided, wrong, err := op(i)
				r.attempted++
				if err != nil {
					r.failed++
					continue
				}
				r.decided += decided
				r.wrong += wrong
				r.samples = append(r.samples, sample{at: due.Sub(start), lat: time.Since(due)})
			}
		}(&results[w])
	}
	cutoff := start.Add(d + openGrace)
	var sent int64
	for sent < n && time.Now().Before(cutoff) {
		ticks, err := tick.wait()
		if err != nil {
			close(work)
			wg.Wait()
			return loopResult{}, err
		}
		for due := ticks * openBurst; due > 0 && sent < n; due-- {
			work <- sent
			sent++
		}
	}
	close(work)
	wg.Wait()
	out := loopResult{elapsed: time.Since(start), scheduled: n}
	for i := range results {
		out.tally.add(results[i].tally)
		out.samples = append(out.samples, results[i].samples...)
		out.late = append(out.late, results[i].late...)
	}
	// Scheduled requests nobody sent failed: their callers never got an
	// answer.
	if unsent := n - out.attempted; unsent > 0 {
		out.attempted += unsent
		out.failed += unsent
	}
	return out, nil
}

// ticker is a periodic kernel timer read through the runtime's network
// poller. The poller wakes on a readable descriptor at once, whereas a
// goroutine sleeping on a Go timer in an otherwise idle one-thread
// process wakes through epoll_wait's timeout, which counts in whole
// milliseconds — far too coarse to pace tens of thousands of requests
// per second.
type ticker struct {
	f *os.File
	// armed is read just before the timer starts, so the k-th expiry
	// never comes before armed + k periods.
	armed time.Time
}

func newTicker(every time.Duration) (*ticker, error) {
	const clockMonotonic, tfdNonblock = 1, 0x800
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	ts := syscall.NsecToTimespec(int64(every))
	spec := struct{ interval, value syscall.Timespec }{ts, ts}
	armed := time.Now()
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: os.NewFile(fd, "timerfd"), armed: armed}, nil
}

// wait blocks until the timer has expired at least once more and
// returns how many periods have passed since the last call.
func (t *ticker) wait() (int64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(t.f, buf[:]); err != nil {
		return 0, err
	}
	return int64(binary.NativeEndian.Uint64(buf[:])), nil
}

func (t *ticker) close() { t.f.Close() }
