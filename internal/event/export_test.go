package event

import "time"

// Only this package's tests call the declarations below, so they
// live beside the tests (rbacvet's unused pass keeps it that way).

// Or builds OR(args...).
func Or(args ...Expr) Expr { return OpExpr{Kind: OpOr, Args: args} }

// And builds AND(a, b).
func And(a, b Expr) Expr { return OpExpr{Kind: OpAnd, Args: []Expr{a, b}} }

// Not builds NOT(a, b, c).
func Not(a, b, c Expr) Expr { return OpExpr{Kind: OpNot, Args: []Expr{a, b, c}} }

// Any builds ANY(m, args...).
func Any(m int, args ...Expr) Expr { return OpExpr{Kind: OpAny, Count: m, Args: args} }

// Aperiodic builds APERIODIC(a, b, c).
func Aperiodic(a, b, c Expr) Expr { return OpExpr{Kind: OpAperiodic, Args: []Expr{a, b, c}} }

// AStar builds the cumulative aperiodic A*(a, b, c).
func AStar(a, b, c Expr) Expr { return OpExpr{Kind: OpAStar, Args: []Expr{a, b, c}} }

// PStar builds the cumulative periodic P*(a, tau, c).
func PStar(a Expr, tau time.Duration, c Expr) Expr {
	return OpExpr{Kind: OpPStar, Args: []Expr{a, c}, Dur: tau}
}

// DefineExpr parses src and registers it under name.
func (d *Detector) DefineExpr(name, src string) error {
	e, err := Parse(src)
	if err != nil {
		return err
	}
	return d.Define(name, e)
}

// Defer queues fn to run on the drain after the current propagation
// step; handlers use it to sequence work after the cascade in flight.
func (d *Detector) Defer(fn func()) { d.post(fn) }
