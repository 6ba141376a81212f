package vet

import (
	"go/ast"
	"go/token"
)

// ObsNil enforces the observability fast-path discipline: the optional
// instrument pointers (a detector's ins hooks, an observer's Traces
// ring, its Sampler and its Slow ring) default to nil, and hot paths
// must check that before dereferencing. An engine's observer is not
// among them: NewEngine always builds one. The idiomatic shapes —
//
//	s := o.Sampler; if s != nil { ... }        (alias then guard)
//	if ins := ln.d.ins; ins != nil { ... }     (guard in the if init)
//	if o.Traces != nil { o.Traces.Start(...) } (guard the chain itself)
//
// all pass, because the rule is: a selector chain that *continues past*
// one of the optional fields (x.ins.Y, x.Traces.Y, x.Slow.Y) is a
// violation unless the enclosing function nil-checks that exact chain
// prefix somewhere.
var ObsNil = &Analyzer{
	Name: "obsnil",
	Doc:  "optional observability pointers (ins, Traces, Sampler, Slow) must be nil-checked before deref in hot paths",
	Run:  runObsNil,
}

// obsNilPackages are the hot-path packages the invariant covers.
var obsNilPackages = map[string]bool{
	"internal/sentinel": true,
	"internal/event":    true,
	"internal/core":     true,
	"internal/store":    true,
}

// obsNilFields are the optional-pointer field names. Sampler and Slow
// stay nil unless sampled tracing or slow-decision capture is
// configured, so every hot-path use must guard them like the trace ring.
var obsNilFields = map[string]bool{
	"ins": true, "Traces": true, "Sampler": true, "Slow": true,
}

func runObsNil(pass *Pass) {
	if !obsNilPackages[pass.Path] {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkObsNilFunc(pass, fn)
		}
	}
}

func checkObsNilFunc(pass *Pass, fn *ast.FuncDecl) {
	// Collect every expression compared against nil in the function.
	guarded := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if isNil(be.Y) {
			if s := render(be.X); s != "" {
				guarded[s] = true
			}
		}
		if isNil(be.X) {
			if s := render(be.Y); s != "" {
				guarded[s] = true
			}
		}
		return true
	})
	// Flag selector chains continuing past an optional field whose
	// chain prefix is never nil-checked in this function.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.SelectorExpr)
		if !ok || !obsNilFields[base.Sel.Name] {
			return true
		}
		prefix := render(base)
		if prefix == "" || guarded[prefix] {
			return true
		}
		pass.Reportf(sel.Pos(),
			"%s dereferences optional pointer %q without a nil check of %s in this function",
			prefix+"."+sel.Sel.Name, base.Sel.Name, prefix)
		return true
	})
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
