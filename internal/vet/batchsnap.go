package vet

import (
	"go/ast"
	"strings"
)

// BatchSnap enforces the one-snapshot-per-batch invariant of the batch
// decision path (DESIGN §5.6): inside internal/sentinel, a function on
// the batch path (its name contains "Batch") must capture fast-path
// eligibility and the cache/store epoch exactly once, before its
// per-tuple loops — never re-capture them per tuple. A per-tuple
// re-capture silently reverts the batch to per-tuple snapshot cost and,
// worse, lets tuples of one batch observe different epochs, breaking
// the batch-wide born-stale store protocol.
//
// The pass is syntactic: within any for/range statement of a
// batch-path function it flags calls whose callee is one of the
// capture functions (cacheable, SoleNonRetainingSub, CacheVerdictSafe) or a
// selector chain ending in the epoch reads (.epoch.Load, .Epoch).
// Session-generation reads (.Session) are exempt — they are
// per-session state, legitimately captured per tuple.
var BatchSnap = &Analyzer{
	Name: "batchsnap",
	Doc:  "forbid per-tuple snapshot/epoch re-capture inside batch-path loops in internal/sentinel",
	Run:  runBatchSnap,
}

// batchSnapCallees are banned callee names (method or function) inside
// batch-path loops.
var batchSnapCallees = map[string]bool{
	"cacheable":           true,
	"SoleNonRetainingSub": true,
	"CacheVerdictSafe":    true,
	"Epoch":               true,
}

func runBatchSnap(pass *Pass) {
	if pass.Path != "internal/sentinel" {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.Contains(fd.Name.Name, "Batch") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				checkBatchLoop(pass, fd.Name.Name, body)
				return true
			})
		}
	}
}

// checkBatchLoop flags snapshot/epoch captures anywhere inside one loop
// body (nested loops are also inspected from the top-level Inspect;
// duplicate reports are avoided by only descending one level here).
func checkBatchLoop(pass *Pass, fn string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// Don't re-enter nested loops: the outer Inspect visits them
		// and would double-report.
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if batchSnapCallees[fun.Name] {
				pass.Reportf(call.Pos(),
					"%s re-captures the snapshot (%s) inside a per-tuple loop; capture once per batch before the loop",
					fn, fun.Name)
			}
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			if batchSnapCallees[name] {
				pass.Reportf(call.Pos(),
					"%s re-captures the snapshot (%s) inside a per-tuple loop; capture once per batch before the loop",
					fn, name)
				return true
			}
			// Epoch loads: any chain ending ".epoch.Load(...)".
			if name == "Load" {
				if base := render(fun.X); base == "epoch" || strings.HasSuffix(base, ".epoch") {
					pass.Reportf(call.Pos(),
						"%s re-reads the fast-path epoch inside a per-tuple loop; capture it once per batch before the loop",
						fn)
				}
			}
		}
		return true
	})
}
