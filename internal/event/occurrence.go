// Package event implements the Snoop(IB) composite event detection engine
// that underlies Sentinel+ in the paper: primitive events raised by
// reactive objects, composite events built from the operators OR, AND,
// SEQ, NOT, ANY, PLUS, APERIODIC (and its cumulative variant A*) and
// PERIODIC (and P*), interval-based occurrence timestamps, and the four
// Snoop parameter-consumption contexts (Recent, Chronicle, Continuous,
// Cumulative).
//
// Events form a graph: primitive event nodes at the leaves, operator
// nodes above them. The Detector owns the graph, serializes occurrence
// propagation through an internal queue (so rule actions may raise
// further events without re-entrancy hazards — the paper's cascaded
// rules), and invokes subscriber callbacks when any named event is
// detected.
package event

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"activerbac/internal/obs"
)

// Params carries the named parameters of an event occurrence (the
// <PA1 ... PAn> of the paper's E = U -> F(PA1 ... PAn) notation).
// Values are compared with == in conditions, so keep them to basic types.
type Params map[string]any

// Clone returns a shallow copy of p (nil-safe).
func (p Params) Clone() Params {
	if p == nil {
		return nil
	}
	c := make(Params, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// Merge returns a new Params holding p's entries overlaid with q's
// (q wins on conflicts). Either may be nil.
func (p Params) Merge(q Params) Params {
	if len(p) == 0 {
		return q.Clone()
	}
	m := p.Clone()
	for k, v := range q {
		m[k] = v
	}
	return m
}

// String renders parameters deterministically (sorted by key) for logs
// and golden tests.
func (p Params) String() string {
	if len(p) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%v", k, p[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Occurrence is one detected instance of an event. Following SnoopIB,
// every occurrence carries an interval [Start, End]: for a primitive
// event the interval is a point (Start == End); for a composite event it
// spans from the initiator's Start to the terminator's End.
type Occurrence struct {
	// Event is the name of the event that occurred (primitive or the
	// registered name of a composite event).
	Event string
	// Start and End bound the occurrence interval.
	Start, End time.Time
	// Params holds the merged parameters visible to rule conditions and
	// actions.
	Params Params
	// Constituents lists the child occurrences a composite occurrence
	// was built from, in detection order. Nil for primitive events.
	Constituents []*Occurrence
	// Seq is a detector-assigned sequence number: total order of
	// detection within one Detector.
	Seq uint64

	// trace, when non-nil, is the decision trace this occurrence belongs
	// to; cascaded occurrences and composites built from this one
	// inherit it, so the whole cascade records into one trace.
	trace *obs.Trace
}

// Trace returns the decision trace the occurrence records into, or nil
// when tracing is off — the nil check is the entire disabled path.
func (o *Occurrence) Trace() *obs.Trace { return o.trace }

// At reports the point timestamp for point occurrences and the interval
// end otherwise; used where legacy point semantics are needed.
func (o *Occurrence) At() time.Time { return o.End }

// String renders the occurrence compactly for logs and tests.
func (o *Occurrence) String() string {
	if o.Start.Equal(o.End) {
		return fmt.Sprintf("%s@%s%s", o.Event, o.End.Format("15:04:05"), o.Params)
	}
	return fmt.Sprintf("%s[%s..%s]%s", o.Event,
		o.Start.Format("15:04:05"), o.End.Format("15:04:05"), o.Params)
}

// compose builds a composite occurrence for event name from constituent
// occurrences, computing the SnoopIB interval and merging parameters in
// constituent order.
func compose(name string, seq uint64, parts ...*Occurrence) *Occurrence {
	if len(parts) == 0 {
		return &Occurrence{Event: name, Seq: seq}
	}
	start, end := parts[0].Start, parts[0].End
	trace := parts[0].trace
	var params Params
	for _, p := range parts {
		if p.Start.Before(start) {
			start = p.Start
		}
		if p.End.After(end) {
			end = p.End
		}
		if trace == nil {
			trace = p.trace // any traced constituent attributes the match
		}
		params = params.Merge(p.Params)
	}
	kids := make([]*Occurrence, len(parts))
	copy(kids, parts)
	return &Occurrence{
		Event:        name,
		Start:        start,
		End:          end,
		Params:       params,
		Constituents: kids,
		Seq:          seq,
		trace:        trace,
	}
}

// Mode is a Snoop parameter-consumption context. It governs which
// initiator occurrences pair with a terminator occurrence in binary
// operators and which histories are consumed on detection.
type Mode int

const (
	// Recent keeps only the most recent initiator; it continues to
	// initiate detections until a newer initiator replaces it.
	Recent Mode = iota
	// Chronicle pairs initiators and terminators in FIFO order,
	// consuming both on detection.
	Chronicle
	// Continuous lets every pending initiator pair with the terminator,
	// yielding one detection per initiator and consuming all of them.
	Continuous
	// Cumulative folds every pending initiator into a single detection
	// at the terminator, consuming all of them.
	Cumulative
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Recent:
		return "recent"
	case Chronicle:
		return "chronicle"
	case Continuous:
		return "continuous"
	case Cumulative:
		return "cumulative"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a mode name as used in event expressions.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "recent":
		return Recent, nil
	case "chronicle":
		return Chronicle, nil
	case "continuous":
		return Continuous, nil
	case "cumulative":
		return Cumulative, nil
	}
	return 0, fmt.Errorf("event: unknown consumption mode %q", s)
}
