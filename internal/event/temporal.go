package event

import (
	"time"

	"activerbac/internal/clock"
)

// Temporal Snoop operators: PLUS, APERIODIC (and cumulative A*), and
// PERIODIC (and cumulative P*). All scheduling goes through the
// detector's Clock, so simulated time drives these operators in tests
// and benchmarks exactly as wall time would in production.

// plusNode detects PLUS(e, delta): delta after each occurrence of e
// (paper Rule 2: force-close a file 2 hours after it was opened). In
// Recent mode a new child occurrence supersedes the pending timer; in
// the other modes every child occurrence fires its own detection.
type plusNode struct {
	baseNode
	child   node
	delta   time.Duration
	mode    Mode
	gen     uint64
	pending map[uint64]clock.Timer
}

func (n *plusNode) kind() string { return "PLUS" }

func (n *plusNode) process(_ node, occ *Occurrence, d *Detector) {
	if n.pending == nil {
		n.pending = make(map[uint64]clock.Timer)
	}
	if n.mode == Recent {
		for g, t := range n.pending {
			t.Stop()
			delete(n.pending, g)
		}
	}
	n.gen++
	g := n.gen
	deadline := occ.End.Add(n.delta)
	n.pending[g] = d.clk.At(deadline, func() {
		// Timer callbacks fire off the drain; operator state belongs to
		// it, so the detection step is posted there.
		d.post(func() { n.fire(g, occ, d) })
	})
}

// fire runs on the drain goroutine when a PLUS deadline elapses.
func (n *plusNode) fire(g uint64, started *Occurrence, d *Detector) {
	if _, ok := n.pending[g]; !ok {
		return // superseded or cancelled
	}
	delete(n.pending, g)
	now := d.clk.Now()
	d.deliver(n, &Occurrence{
		Event:        n.nm,
		Start:        started.Start,
		End:          now,
		Params:       started.Params.Clone(),
		Constituents: []*Occurrence{started},
	})
}

// aperiodicWindow is one open APERIODIC span.
type aperiodicWindow struct {
	starter *Occurrence
	mids    []*Occurrence // buffered middles, cumulative variant only
}

// aperiodicNode detects APERIODIC(a, b, c): every occurrence of b that
// falls between an occurrence of a and the following occurrence of c
// (paper Rule 9's transaction-bounded activation). The cumulative
// variant (A*) buffers the b occurrences and emits once, at c.
type aperiodicNode struct {
	baseNode
	a, b, c    node
	mode       Mode
	cumulative bool
	windows    []*aperiodicWindow
}

func (n *aperiodicNode) kind() string {
	if n.cumulative {
		return "A*"
	}
	return "APERIODIC"
}

func (n *aperiodicNode) process(src node, occ *Occurrence, d *Detector) {
	// Role priority for aliased children: middle, terminator, starter.
	if src == n.b {
		n.middle(occ, d)
		if src != n.c && src != n.a {
			return
		}
	}
	if src == n.c {
		n.terminate(occ, d)
		if src != n.a {
			return
		}
	}
	if src == n.a {
		n.start(occ)
	}
}

func (n *aperiodicNode) start(occ *Occurrence) {
	if n.mode == Recent {
		n.windows = n.windows[:0]
	}
	n.windows = append(n.windows, &aperiodicWindow{starter: occ})
}

// selected returns the windows a middle/terminator occurrence applies to
// under the node's mode.
func (n *aperiodicNode) selected(occ *Occurrence) []*aperiodicWindow {
	var eligible []*aperiodicWindow
	for _, w := range n.windows {
		if w.starter.End.Before(occ.Start) {
			eligible = append(eligible, w)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	switch n.mode {
	case Recent:
		return eligible[len(eligible)-1:]
	case Chronicle:
		return eligible[:1]
	default:
		return eligible
	}
}

func (n *aperiodicNode) middle(occ *Occurrence, d *Detector) {
	for _, w := range n.selected(occ) {
		if n.cumulative {
			w.mids = append(w.mids, occ)
		} else {
			d.deliver(n, compose(n.nm, 0, w.starter, occ))
		}
	}
}

func (n *aperiodicNode) terminate(occ *Occurrence, d *Detector) {
	closing := n.selected(occ)
	if len(closing) == 0 {
		return
	}
	isClosing := func(w *aperiodicWindow) bool {
		for _, c := range closing {
			if c == w {
				return true
			}
		}
		return false
	}
	keep := n.windows[:0]
	for _, w := range n.windows {
		if !isClosing(w) {
			keep = append(keep, w)
		}
	}
	n.windows = keep
	if n.cumulative {
		for _, w := range closing {
			if len(w.mids) == 0 {
				continue
			}
			parts := append([]*Occurrence{w.starter}, w.mids...)
			parts = append(parts, occ)
			d.deliver(n, compose(n.nm, 0, parts...))
		}
	}
}

// periodicWindow is one running PERIODIC span.
type periodicWindow struct {
	starter *Occurrence
	gen     uint64
	timer   clock.Timer
	ticks   int
	first   time.Time
}

// periodicNode detects PERIODIC(a, tau, c): every tau after an
// occurrence of a, until the following occurrence of c (paper: periodic
// monitoring and report generation). The cumulative variant (P*) counts
// the ticks silently and emits a single occurrence at c carrying the
// tick count.
type periodicNode struct {
	baseNode
	a, c       node
	tau        time.Duration
	mode       Mode
	cumulative bool
	gen        uint64
	windows    map[uint64]*periodicWindow
	order      []uint64
}

func (n *periodicNode) kind() string {
	if n.cumulative {
		return "P*"
	}
	return "PERIODIC"
}

func (n *periodicNode) process(src node, occ *Occurrence, d *Detector) {
	if src == n.c {
		n.terminate(occ, d)
		if src != n.a {
			return
		}
	}
	if src == n.a {
		n.start(occ, d)
	}
}

func (n *periodicNode) start(occ *Occurrence, d *Detector) {
	if n.windows == nil {
		n.windows = make(map[uint64]*periodicWindow)
	}
	if n.mode == Recent {
		for _, g := range n.order {
			if w, ok := n.windows[g]; ok {
				w.timer.Stop()
				delete(n.windows, g)
			}
		}
		n.order = n.order[:0]
	}
	n.gen++
	w := &periodicWindow{starter: occ, gen: n.gen, first: occ.End}
	n.windows[w.gen] = w
	n.order = append(n.order, w.gen)
	n.arm(w, occ.End.Add(n.tau), d)
}

func (n *periodicNode) arm(w *periodicWindow, at time.Time, d *Detector) {
	g := w.gen
	w.timer = d.clk.At(at, func() {
		d.post(func() { n.tick(g, at, d) })
	})
}

// tick runs on the drain goroutine at each period boundary.
func (n *periodicNode) tick(g uint64, at time.Time, d *Detector) {
	w, ok := n.windows[g]
	if !ok {
		return // window closed before the queued tick ran
	}
	w.ticks++
	n.arm(w, at.Add(n.tau), d)
	if n.cumulative {
		return
	}
	params := w.starter.Params.Clone()
	if params == nil {
		params = Params{}
	}
	params["tick"] = w.ticks
	d.deliver(n, &Occurrence{
		Event:        n.nm,
		Start:        at,
		End:          at,
		Params:       params,
		Constituents: []*Occurrence{w.starter},
	})
}

func (n *periodicNode) terminate(occ *Occurrence, d *Detector) {
	var closing []uint64
	for _, g := range n.order {
		w, ok := n.windows[g]
		if !ok {
			continue
		}
		if w.starter.End.Before(occ.Start) {
			closing = append(closing, g)
			if n.mode == Chronicle {
				break
			}
		}
	}
	if len(closing) == 0 {
		return
	}
	closed := make(map[uint64]bool, len(closing))
	for _, g := range closing {
		w := n.windows[g]
		w.timer.Stop()
		delete(n.windows, g)
		closed[g] = true
		if n.cumulative {
			params := w.starter.Params.Merge(occ.Params)
			if params == nil {
				params = Params{}
			}
			params["ticks"] = w.ticks
			d.deliver(n, &Occurrence{
				Event:        n.nm,
				Start:        w.starter.Start,
				End:          occ.End,
				Params:       params,
				Constituents: []*Occurrence{w.starter, occ},
			})
		}
	}
	keep := n.order[:0]
	for _, g := range n.order {
		if !closed[g] {
			keep = append(keep, g)
		}
	}
	n.order = keep
}
