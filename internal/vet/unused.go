package vet

import (
	"go/ast"
	"go/token"
	"strings"
)

// Unused makes "every line of code justified" mechanical: an exported
// top-level function, method, type, variable or constant declared in a
// non-test file under internal/ or client/ must be referenced by some
// non-test file of the module (apart from its own declaration), or by
// the tests of another directory, which cannot move into the declaring
// package's tests. Anything else ships only for its own package's
// tests, or for nothing: move it into a _test.go file or delete it.
//
// Matching is by name, so a use of any same-named identifier counts:
// the pass can miss dead code but never flags live code. Methods named
// after standard-library interface methods are reached through those
// interfaces, not by name, and are exempt; so is a declaration whose
// doc comment carries `//rbacvet:api <reason>`, a deliberate API kept
// without a caller.
//
// The pass needs every use in view, so it runs only on a whole-module
// load (rbacvet ./... from the root).
var Unused = &Analyzer{
	Name:   "unused",
	Doc:    "exported declarations under internal/ and client/ are used by a non-test file or by another package's tests",
	Module: runUnused,
}

// apiMarker opts a declaration out of the pass; a reason must follow.
const apiMarker = "rbacvet:api"

// stdMethods are standard-library interface method names.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Format": true, "ServeHTTP": true, "Read": true, "Write": true, "Close": true,
}

func runUnused(pkgs []Package) []Diagnostic {
	// uses counts the identifiers of every non-test file; a
	// declaration's own name is one of them. testUses holds, per
	// package, the names its tests refer to.
	uses := map[string]int{}
	testUses := map[string]map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			eachIdent(f, func(name string) { uses[name]++ })
		}
		names := map[string]bool{}
		for _, f := range pkg.Tests {
			eachIdent(f, func(name string) { names[name] = true })
		}
		testUses[pkg.Path] = names
	}
	usedByOtherTests := func(path, name string) bool {
		for p, names := range testUses {
			if p != path && names[name] {
				return true
			}
		}
		return false
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "internal/") && pkg.Path != "client" && !strings.HasPrefix(pkg.Path, "client/") {
			continue
		}
		report := func(pos token.Pos, msg string) {
			diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(pos), Analyzer: "unused", Message: msg})
		}
		for _, f := range pkg.Files {
			eachExported(f, func(id *ast.Ident, what string, docs ...*ast.CommentGroup) {
				if reason, ok := apiReason(docs...); ok {
					if reason == "" {
						report(id.Pos(), "//"+apiMarker+" on "+what+" needs a reason")
					}
					return
				}
				name := id.Name
				if uses[name] > 1 || usedByOtherTests(pkg.Path, name) {
					return
				}
				if testUses[pkg.Path][name] {
					report(id.Pos(), what+" is used only by its own package's tests; move it into a _test.go file")
				} else {
					report(id.Pos(), what+" is used by nothing; delete it")
				}
			})
		}
	}
	return diags
}

// eachIdent calls fn with the name of every identifier in f. Comments
// are not identifiers, so a name mentioned only in prose is no use.
func eachIdent(f *ast.File, fn func(string)) {
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			fn(id.Name)
		}
		return true
	})
}

// eachExported calls fn for every exported top-level declaration of f
// with its name, a description ("method Sampler.Rate") and the doc
// comments that may annotate it.
func eachExported(f *ast.File, fn func(id *ast.Ident, what string, docs ...*ast.CommentGroup)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				fn(d.Name, "func "+d.Name.Name, d.Doc)
			} else if !stdMethods[d.Name.Name] {
				fn(d.Name, "method "+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Doc)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						fn(s.Name, "type "+s.Name.Name, d.Doc, s.Doc)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							fn(id, d.Tok.String()+" "+id.Name, d.Doc, s.Doc)
						}
					}
				}
			}
		}
	}
}

// recvName is the type name of a method receiver (*T, T, T[K]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// apiReason reports whether one of docs carries the api marker, and the
// reason that follows it.
func apiReason(docs ...*ast.CommentGroup) (string, bool) {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, apiMarker); ok && (rest == "" || rest[0] == ' ') {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}
