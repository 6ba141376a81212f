// Package core implements the paper's primary contribution: OWTE
// (On-When-Then-Else) active authorization rules — ECA rules extended
// with alternative actions — and the rule pool that classifies, orders,
// enables, disables and fires them.
//
// A rule binds to a named event in an event.Detector ("On"). When the
// event is detected the rule's conditions are evaluated in order
// ("When"); if every condition holds, the actions run ("Then"),
// otherwise the alternative actions run ("Else"). Rules carry the
// paper's classification (administrative, activity-control,
// active-security) and granularity (specialized, localized, globalized),
// plus priorities and tags used by the rule generator for regeneration.
package core

import (
	"fmt"
	"time"

	"activerbac/internal/event"
)

// Condition is one "When" predicate. Conditions are conjunctive and
// evaluated in order with short-circuiting. A returned error counts as
// FALSE (the paper routes every non-TRUE evaluation to the Else branch)
// and is surfaced in the rule outcome.
type Condition struct {
	// Desc describes the predicate for rule listings and audit trails,
	// e.g. "user IN userL" or "checkDynamicSoDSet(user, R1)".
	Desc string
	// Eval evaluates the predicate against the triggering occurrence.
	Eval func(*event.Occurrence) (bool, error)
}

// Action is one "Then" or "Else" step. Actions may raise further events
// on the detector (cascaded rules); failures abort the remaining steps
// of the same branch and are surfaced in the outcome.
type Action struct {
	// Desc describes the step, e.g. "addSessionRoleR1(sessionId)".
	Desc string
	// Run performs the step.
	Run func(*event.Occurrence) error
}

// Cond is shorthand for building a Condition.
func Cond(desc string, eval func(*event.Occurrence) (bool, error)) Condition {
	return Condition{Desc: desc, Eval: eval}
}

// BoolCond builds a Condition from a plain predicate.
func BoolCond(desc string, eval func(*event.Occurrence) bool) Condition {
	return Condition{Desc: desc, Eval: func(o *event.Occurrence) (bool, error) {
		return eval(o), nil
	}}
}

// Act is shorthand for building an Action.
func Act(desc string, run func(*event.Occurrence) error) Action {
	return Action{Desc: desc, Run: run}
}

// Class is the paper's rule classification (Section 4.3).
type Class int

// Rule classes.
const (
	// Administrative rules implement high-level policy operations such
	// as user-role assignment.
	Administrative Class = iota
	// ActivityControl rules gate the activities instances of U may
	// perform (activations, accesses, cardinality, ...).
	ActivityControl
	// ActiveSecurity rules monitor state changes and take preventive
	// measures.
	ActiveSecurity
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Administrative:
		return "administrative"
	case ActivityControl:
		return "activity-control"
	case ActiveSecurity:
		return "active-security"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Granularity is the paper's rule granularity (Section 4.3): specialized
// rules bind to one user, localized rules to one role, globalized rules
// to no particular role.
type Granularity int

// Rule granularities.
const (
	// Specialized rules are specific to one instance of U (one user).
	Specialized Granularity = iota
	// Localized rules are specific to one role, created from the role's
	// properties.
	Localized
	// Globalized rules are generic and invoked with different
	// parameters.
	Globalized
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case Specialized:
		return "specialized"
	case Localized:
		return "localized"
	case Globalized:
		return "globalized"
	default:
		return fmt.Sprintf("Granularity(%d)", int(g))
	}
}

// Rule is one OWTE authorization rule:
//
//	RULE [ Name
//	       ON    Event
//	       WHEN  <C1 ... Cn>
//	       THEN  <A1 ... An>
//	       ELSE  <AA1 ... AAn> ]
type Rule struct {
	// Name identifies the rule uniquely within a pool (the paper's
	// R-name, e.g. "AAR1.PC").
	Name string
	// On names the triggering event (primitive or composite) in the
	// detector.
	On string
	// When holds the conjunctive conditions; an empty list means TRUE.
	When []Condition
	// Then holds the actions run when all conditions hold.
	Then []Action
	// Else holds the alternative actions run otherwise.
	Else []Action
	// Class and Granularity classify the rule per Section 4.3.
	Class       Class
	Granularity Granularity
	// Priority orders rules triggered by the same event; higher runs
	// first (ties break by insertion order).
	Priority int
	// Tags label the rule for bulk operations; the rule generator tags
	// rules with the role and constraint they came from so regeneration
	// can replace exactly the affected rules.
	Tags []string
	// Disabled marks the rule inactive at insertion time.
	Disabled bool
	// CacheSafe declares that the rule's verdict is a pure function of
	// RBAC store state for a given parameter tuple: no condition or
	// action reads temporal/GTRBAC windows, DSoD activation history,
	// consent, environment context or monitor counters, and the Else
	// branch's side effects (denial recording) are the only
	// history-dependent part. The decision fast path may serve repeat
	// ALLOW verdicts for an event from its cache only when every enabled
	// rule on the event is CacheSafe; denials always run the cascade.
	// Mark a rule cache-safe only after auditing every closure it holds.
	CacheSafe bool
}

// HasTag reports whether the rule carries tag.
func (r *Rule) HasTag(tag string) bool {
	for _, t := range r.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Outcome records one firing of a rule, for audit trails and active
// security monitors.
type Outcome struct {
	// Rule is the fired rule's name; Event the triggering occurrence.
	Rule  string
	Event *event.Occurrence
	// Allowed reports whether the When branch held (Then ran).
	Allowed bool
	// FailedCond is the description of the first condition that did not
	// hold (empty when Allowed).
	FailedCond string
	// CondErr is the error from a condition evaluation, if any.
	CondErr error
	// ActionErr is the first error from the branch that ran, if any.
	ActionErr error
	// At is the detector-clock instant of the firing.
	At time.Time
}

// String renders the outcome for logs.
func (o Outcome) String() string {
	verdict := "ALLOW"
	if !o.Allowed {
		verdict = "DENY"
	}
	s := fmt.Sprintf("%s %s on %s", verdict, o.Rule, o.Event)
	if o.FailedCond != "" {
		s += fmt.Sprintf(" (failed: %s)", o.FailedCond)
	}
	return s
}
