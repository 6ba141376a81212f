package event

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// Expr is the abstract syntax of an event expression. Expressions are
// how rule generation describes composite events declaratively, e.g.
//
//	SEQ(addActiveRole.Manager, addActiveRole.JuniorEmp)
//	PLUS(openFile, 2h)
//	APERIODIC@chronicle(txBegin, activate, txEnd)
//	ANY(2, e1, e2, e3)
//
// An operator may carry an explicit consumption mode with the
// "@recent|@chronicle|@continuous|@cumulative" suffix; the default is
// Recent (Snoop's default context).
type Expr interface {
	String() string
	exprNode()
}

// NameExpr references a previously defined event by name.
type NameExpr string

func (e NameExpr) String() string { return string(e) }
func (NameExpr) exprNode()        {}

// OpKind enumerates the composite operators.
type OpKind string

// The Snoop(IB) operators supported by the engine.
const (
	OpOr        OpKind = "OR"
	OpAnd       OpKind = "AND"
	OpSeq       OpKind = "SEQ"
	OpNot       OpKind = "NOT"
	OpAny       OpKind = "ANY"
	OpPlus      OpKind = "PLUS"
	OpAperiodic OpKind = "APERIODIC"
	OpAStar     OpKind = "ASTAR"
	OpPeriodic  OpKind = "PERIODIC"
	OpPStar     OpKind = "PSTAR"
)

// OpExpr is an operator application.
type OpExpr struct {
	Kind OpKind
	Mode Mode
	Args []Expr
	// Dur is the PLUS delta or the PERIODIC/PSTAR period.
	Dur time.Duration
	// Count is the ANY threshold m.
	Count int
}

func (OpExpr) exprNode() {}

// String renders the expression in canonical parseable form.
func (e OpExpr) String() string {
	var b strings.Builder
	b.WriteString(string(e.Kind))
	if e.Mode != Recent {
		b.WriteByte('@')
		b.WriteString(e.Mode.String())
	}
	b.WriteByte('(')
	first := true
	emit := func(s string) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(s)
	}
	switch e.Kind {
	case OpAny:
		emit(strconv.Itoa(e.Count))
		for _, a := range e.Args {
			emit(a.String())
		}
	case OpPlus:
		emit(e.Args[0].String())
		emit(e.Dur.String())
	case OpPeriodic, OpPStar:
		emit(e.Args[0].String())
		emit(e.Dur.String())
		emit(e.Args[1].String())
	default:
		for _, a := range e.Args {
			emit(a.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Convenience constructors for building expressions in code.

// Seq builds SEQ(a, b).
func Seq(a, b Expr) Expr { return OpExpr{Kind: OpSeq, Args: []Expr{a, b}} }

// Plus builds PLUS(a, d).
func Plus(a Expr, d time.Duration) Expr { return OpExpr{Kind: OpPlus, Args: []Expr{a}, Dur: d} }

// Periodic builds PERIODIC(a, tau, c).
func Periodic(a Expr, tau time.Duration, c Expr) Expr {
	return OpExpr{Kind: OpPeriodic, Args: []Expr{a, c}, Dur: tau}
}

// WithMode returns e with its consumption mode set (no-op for NameExpr).
func WithMode(e Expr, m Mode) Expr {
	if op, ok := e.(OpExpr); ok {
		op.Mode = m
		return op
	}
	return e
}

// ---------------------------------------------------------------------------
// Parser

// Parse parses the canonical event-expression syntax produced by
// OpExpr.String.
func Parse(src string) (Expr, error) {
	p := &parser{src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("event: trailing input at %d in %q", p.pos, src)
	}
	return e, nil
}

// MustParse is Parse that panics on error; for expression literals.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	src string
	pos int
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("event: %s at %d in %q", fmt.Sprintf(format, args...), p.pos, p.src)
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

// ident consumes an identifier: letters, digits, '_', '.', '-'.
func (p *parser) ident() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || c == '.' || c == '-' || c == '*' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return p.errf("expected %q", string(c))
	}
	p.pos++
	return nil
}

var opKinds = map[string]OpKind{
	"OR": OpOr, "AND": OpAnd, "SEQ": OpSeq, "SEQUENCE": OpSeq, "NOT": OpNot,
	"ANY": OpAny, "PLUS": OpPlus, "APERIODIC": OpAperiodic, "ASTAR": OpAStar,
	"A*": OpAStar, "PERIODIC": OpPeriodic, "PSTAR": OpPStar, "P*": OpPStar,
}

func (p *parser) parseExpr() (Expr, error) {
	p.skipSpace()
	word := p.ident()
	if word == "" {
		return nil, p.errf("expected event name or operator")
	}
	kind, isOp := opKinds[strings.ToUpper(word)]
	p.skipSpace()
	// An operator must be followed by '(' or '@mode('; otherwise the
	// word is an event name (so an event legitimately named "or" works
	// when not followed by parentheses).
	if !isOp || (p.peek() != '(' && p.peek() != '@') {
		return NameExpr(word), nil
	}
	mode := Recent
	if p.peek() == '@' {
		p.pos++
		m, err := ParseMode(p.ident())
		if err != nil {
			return nil, p.errf("%v", err)
		}
		mode = m
	}
	if err := p.expect('('); err != nil {
		return nil, err
	}
	op := OpExpr{Kind: kind, Mode: mode}
	if err := p.parseArgs(&op); err != nil {
		return nil, err
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	if err := validate(op); err != nil {
		return nil, fmt.Errorf("%v in %q", err, p.src)
	}
	return op, nil
}

// parseArgs fills the operator's argument slots according to its arity
// template: ANY takes a leading integer; PLUS takes a trailing duration;
// PERIODIC/PSTAR take (event, duration, event).
func (p *parser) parseArgs(op *OpExpr) error {
	idx := 0
	for {
		p.skipSpace()
		if p.peek() == ')' {
			return nil
		}
		if idx > 0 {
			if err := p.expect(','); err != nil {
				return err
			}
			p.skipSpace()
		}
		switch {
		case op.Kind == OpAny && idx == 0:
			n, err := strconv.Atoi(p.ident())
			if err != nil {
				return p.errf("ANY threshold must be an integer")
			}
			op.Count = n
		case op.Kind == OpPlus && idx == 1,
			(op.Kind == OpPeriodic || op.Kind == OpPStar) && idx == 1:
			d, err := time.ParseDuration(p.ident())
			if err != nil {
				return p.errf("bad duration: %v", err)
			}
			op.Dur = d
		default:
			arg, err := p.parseExpr()
			if err != nil {
				return err
			}
			op.Args = append(op.Args, arg)
		}
		idx++
	}
}

// validate checks operator arities.
func validate(op OpExpr) error {
	switch op.Kind {
	case OpOr:
		if len(op.Args) < 2 {
			return fmt.Errorf("event: OR needs at least 2 arguments, got %d", len(op.Args))
		}
	case OpAnd, OpSeq:
		if len(op.Args) != 2 {
			return fmt.Errorf("event: %s needs exactly 2 arguments, got %d", op.Kind, len(op.Args))
		}
	case OpNot, OpAperiodic, OpAStar:
		if len(op.Args) != 3 {
			return fmt.Errorf("event: %s needs exactly 3 arguments, got %d", op.Kind, len(op.Args))
		}
	case OpAny:
		if len(op.Args) < 1 {
			return fmt.Errorf("event: ANY needs at least 1 event argument")
		}
		if op.Count < 1 || op.Count > len(op.Args) {
			return fmt.Errorf("event: ANY threshold %d out of range [1,%d]", op.Count, len(op.Args))
		}
	case OpPlus:
		if len(op.Args) != 1 {
			return fmt.Errorf("event: PLUS needs exactly 1 event argument, got %d", len(op.Args))
		}
		if op.Dur <= 0 {
			return fmt.Errorf("event: PLUS duration must be positive, got %v", op.Dur)
		}
	case OpPeriodic, OpPStar:
		if len(op.Args) != 2 {
			return fmt.Errorf("event: %s needs (start, period, end), got %d events", op.Kind, len(op.Args))
		}
		if op.Dur <= 0 {
			return fmt.Errorf("event: %s period must be positive, got %v", op.Kind, op.Dur)
		}
	default:
		return fmt.Errorf("event: unknown operator %q", op.Kind)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Compilation

// Define registers name as a composite event described by e. Referenced
// event names must already be defined. Defining an existing name fails.
func (d *Detector) Define(name string, e Expr) error {
	d.smu.Lock()
	defer d.smu.Unlock()
	if name == "" {
		return fmt.Errorf("event: empty event name")
	}
	if _, exists := d.nodes[name]; exists {
		return fmt.Errorf("event: %q already defined", name)
	}
	n, err := d.compileLocked(name, e)
	if err != nil {
		return err
	}
	d.nodes[name] = n
	d.publishLocked()
	return nil
}

// MustDefine is Define that panics on error.
func (d *Detector) MustDefine(name string, e Expr) {
	if err := d.Define(name, e); err != nil {
		panic(err)
	}
}

// compileLocked builds the node graph for e. name is used for the root
// node; nested operator nodes get synthesized names. Caller holds smu.
func (d *Detector) compileLocked(name string, e Expr) (node, error) {
	switch ex := e.(type) {
	case NameExpr:
		child, err := d.lookupLocked(string(ex))
		if err != nil {
			return nil, err
		}
		// A named alias is a single-child OR.
		n := &orNode{baseNode: baseNode{nm: name}, children: []node{child}}
		child.addParent(n)
		return n, nil
	case OpExpr:
		return d.compileOpLocked(name, ex)
	default:
		return nil, fmt.Errorf("event: unknown expression type %T", e)
	}
}

// compileArgLocked compiles a nested argument, giving operator arguments
// synthesized names.
func (d *Detector) compileArgLocked(e Expr) (node, error) {
	switch ex := e.(type) {
	case NameExpr:
		return d.lookupLocked(string(ex))
	case OpExpr:
		n, err := d.compileOpLocked(d.anonName(string(ex.Kind)), ex)
		if err != nil {
			return nil, err
		}
		d.nodes[n.name()] = n
		return n, nil
	default:
		return nil, fmt.Errorf("event: unknown expression type %T", e)
	}
}

func (d *Detector) compileOpLocked(name string, op OpExpr) (node, error) {
	if err := validate(op); err != nil {
		return nil, err
	}
	kids := make([]node, len(op.Args))
	for i, a := range op.Args {
		k, err := d.compileArgLocked(a)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	var n node
	switch op.Kind {
	case OpOr:
		n = &orNode{baseNode: baseNode{nm: name}, children: kids}
	case OpAnd:
		n = &andNode{baseNode: baseNode{nm: name}, left: kids[0], right: kids[1], mode: op.Mode}
	case OpSeq:
		n = &seqNode{baseNode: baseNode{nm: name}, left: kids[0], right: kids[1], mode: op.Mode}
	case OpNot:
		n = &notNode{baseNode: baseNode{nm: name}, a: kids[0], b: kids[1], c: kids[2], mode: op.Mode}
	case OpAny:
		n = &anyNode{baseNode: baseNode{nm: name}, m: op.Count, modeVal: op.Mode, children: kids}
	case OpPlus:
		n = &plusNode{baseNode: baseNode{nm: name}, child: kids[0], delta: op.Dur, mode: op.Mode}
	case OpAperiodic:
		n = &aperiodicNode{baseNode: baseNode{nm: name}, a: kids[0], b: kids[1], c: kids[2], mode: op.Mode}
	case OpAStar:
		n = &aperiodicNode{baseNode: baseNode{nm: name}, a: kids[0], b: kids[1], c: kids[2], mode: op.Mode, cumulative: true}
	case OpPeriodic:
		n = &periodicNode{baseNode: baseNode{nm: name}, a: kids[0], c: kids[1], tau: op.Dur, mode: op.Mode}
	case OpPStar:
		n = &periodicNode{baseNode: baseNode{nm: name}, a: kids[0], c: kids[1], tau: op.Dur, mode: op.Mode, cumulative: true}
	default:
		return nil, fmt.Errorf("event: unknown operator %q", op.Kind)
	}
	for _, k := range kids {
		k.addParent(n)
	}
	return n, nil
}
