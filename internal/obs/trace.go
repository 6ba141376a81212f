package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// StepKind classifies one step of a decision trace.
type StepKind string

// Trace step kinds, in the order they typically appear in a cascade.
const (
	// StepRaise is the delivery of a primitive occurrence.
	StepRaise StepKind = "raise"
	// StepOperator is a composite-operator match (SEQ, AND, ...).
	StepOperator StepKind = "operator"
	// StepCondition is one rule condition evaluation.
	StepCondition StepKind = "condition"
	// StepRule is a rule's branch verdict (Then vs Else).
	StepRule StepKind = "rule"
	// StepAction is one Then/Else action execution.
	StepAction StepKind = "action"
	// StepCascade is a cascaded raise (RaiseFrom) joining the request's
	// cascade.
	StepCascade StepKind = "cascade"
)

// Step is one recorded step of a decision trace. At is the engine-clock
// instant; Seq the trace-local append order (the total order even when
// a simulated clock yields equal timestamps).
type Step struct {
	Seq    int       `json:"seq"`
	At     time.Time `json:"at"`
	Kind   StepKind  `json:"kind"`
	Event  string    `json:"event,omitempty"`
	Rule   string    `json:"rule,omitempty"`
	Detail string    `json:"detail,omitempty"`
	OK     bool      `json:"ok"`
}

// String renders the step for logs and the rbacctl trace view.
func (s Step) String() string {
	verdict := "ok"
	if !s.OK {
		verdict = "fail"
	}
	out := fmt.Sprintf("#%d %s %s", s.Seq, s.Kind, verdict)
	if s.Event != "" {
		out += " event=" + s.Event
	}
	if s.Rule != "" {
		out += " rule=" + s.Rule
	}
	if s.Detail != "" {
		out += " " + s.Detail
	}
	return out
}

// Trace records the full OWTE cascade of one decision: the primitive
// raise, composite-operator matches, per-rule condition evaluations,
// the Then/Else branch taken, and cascaded raises. Steps append under a
// mutex because a late timer firing may append while a reader
// snapshots; the disabled path (nil *Trace on the occurrence) costs one
// pointer check.
type Trace struct {
	id    uint64
	tid   TraceID // client-supplied identity; zero when edge-anonymous
	event string
	scope string
	begin time.Time

	mu    sync.Mutex
	end   time.Time
	done  bool
	steps []Step
}

// ID returns the ring-assigned trace id.
func (t *Trace) ID() uint64 { return t.id }

// TraceID returns the client-supplied 16-byte identity (zero when the
// trace was started without one).
func (t *Trace) TraceID() TraceID { return t.tid }

// Add appends one step stamped at the engine-clock instant at.
func (t *Trace) Add(at time.Time, kind StepKind, event, rule, detail string, ok bool) {
	t.mu.Lock()
	t.steps = append(t.steps, Step{
		Seq: len(t.steps), At: at, Kind: kind,
		Event: event, Rule: rule, Detail: detail, OK: ok,
	})
	t.mu.Unlock()
}

// finish stamps the end of the decision; later Adds (a timer firing
// long after the request settled) still append but the trace stays
// marked complete as of end.
func (t *Trace) finish(at time.Time) {
	t.mu.Lock()
	t.end = at
	t.done = true
	t.mu.Unlock()
}

// TraceData is an immutable snapshot of a trace, safe to serialize.
// TraceID is the client-supplied hex identity ("" when the trace was
// started without one and is addressable only by ID).
type TraceData struct {
	ID       uint64    `json:"id"`
	TraceID  string    `json:"trace_id,omitempty"`
	Event    string    `json:"event"`
	Scope    string    `json:"scope,omitempty"`
	Begin    time.Time `json:"begin"`
	End      time.Time `json:"end"`
	Complete bool      `json:"complete"`
	Steps    []Step    `json:"steps"`
}

// Snapshot copies the trace into a TraceData.
func (t *Trace) Snapshot() TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceData{
		ID: t.id, TraceID: t.tid.String(), Event: t.event, Scope: t.scope,
		Begin: t.begin, End: t.end, Complete: t.done,
		Steps: append([]Step(nil), t.steps...),
	}
}

// TraceRing retains the most recent completed traces in a fixed-size
// ring buffer. Start hands out in-flight traces (held by the Decision);
// Finish stamps them and inserts them into the ring, evicting the
// oldest entry once the ring is full.
type TraceRing struct {
	lastID atomic.Uint64

	mu   sync.Mutex
	buf  []*Trace
	next int
	size int
}

// NewTraceRing returns a ring retaining up to capacity completed
// traces (minimum 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{buf: make([]*Trace, capacity)}
}

// Start creates a new in-flight trace for a decision on event about the
// given scope (the request's session, else its user), beginning at the
// engine-clock instant at.
func (r *TraceRing) Start(event, scope string, at time.Time) *Trace {
	return r.StartID(TraceID{}, event, scope, at)
}

// StartID is Start with a client-supplied 16-byte identity attached, so
// the finished trace resolves under that id (GetByTraceID) as well as
// its ring-assigned sequence number. A zero tid is an anonymous Start.
func (r *TraceRing) StartID(tid TraceID, event, scope string, at time.Time) *Trace {
	return &Trace{id: r.lastID.Add(1), tid: tid, event: event, scope: scope, begin: at}
}

// Finish stamps the trace's end and retains it in the ring.
func (r *TraceRing) Finish(t *Trace, at time.Time) {
	t.finish(at)
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
	r.mu.Unlock()
}

// Recent snapshots the n most recently completed traces, newest first.
// n <= 0 means all retained traces.
func (r *TraceRing) Recent(n int) []TraceData {
	r.mu.Lock()
	if n <= 0 || n > r.size {
		n = r.size
	}
	traces := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		traces = append(traces, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	r.mu.Unlock()
	out := make([]TraceData, len(traces))
	for i, t := range traces {
		out[i] = t.Snapshot()
	}
	return out
}

// Get returns the retained trace with the given id.
func (r *TraceRing) Get(id uint64) (TraceData, bool) {
	r.mu.Lock()
	var found *Trace
	for i := 0; i < r.size; i++ {
		t := r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
		if t.id == id {
			found = t
			break
		}
	}
	r.mu.Unlock()
	if found == nil {
		return TraceData{}, false
	}
	return found.Snapshot(), true
}

// GetByTraceID returns the most recently retained trace carrying the
// given client-supplied identity. The zero id never matches.
func (r *TraceRing) GetByTraceID(tid TraceID) (TraceData, bool) {
	if tid.IsZero() {
		return TraceData{}, false
	}
	r.mu.Lock()
	var found *Trace
	for i := 0; i < r.size; i++ {
		t := r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
		if t.tid == tid {
			found = t
			break
		}
	}
	r.mu.Unlock()
	if found == nil {
		return TraceData{}, false
	}
	return found.Snapshot(), true
}
