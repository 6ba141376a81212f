// Package vet is a small go/analysis-style framework for the repo's
// own invariants, built on the standard library's go/ast and go/parser
// only (the module is dependency-free by policy, so golang.org/x/tools
// is out of reach). cmd/rbacvet is the driver.
//
// The passes are purely syntactic: they need no type information, which
// keeps the driver a plain parse-and-walk with no importer. Each pass
// receives one package (a directory of non-test files) at a time,
// together with its module-relative path so package-scoped invariants
// ("no time.Now in internal/sentinel") can key off it. A module-wide
// pass (unused) sees every package at once, test files included, and
// runs only when the whole module was loaded.
package vet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the pass name ("engineclock").
	Name string
	// Doc states the invariant the pass enforces.
	Doc string
	// Run inspects one package and reports violations through the pass.
	Run func(*Pass)
	// Module, set instead of Run, inspects every package of the module
	// at once and returns its violations.
	Module func([]Package) []Diagnostic
}

// Pass is the per-package execution context handed to an Analyzer.
type Pass struct {
	// Analyzer is the running check.
	Analyzer *Analyzer
	// Fset resolves token positions for the package's files.
	Fset *token.FileSet
	// Path is the package path relative to the module root
	// ("internal/event").
	Path string
	// Files are the package's parsed non-test files.
	Files []*ast.File

	diags *[]Diagnostic
}

// Reportf records one violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the go-vet-style "file:line:col: pass: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one parsed package ready for analysis.
type Package struct {
	// Path is the module-relative package path.
	Path string
	// Fset positions the files.
	Fset *token.FileSet
	// Files are the parsed non-test sources; per-package passes see
	// only these.
	Files []*ast.File
	// Tests are the parsed _test.go sources.
	Tests []*ast.File
}

// Analyzers returns the repo's invariant checks.
func Analyzers() []*Analyzer {
	return []*Analyzer{EngineClock, ObsNil, SnapImmut, BatchSnap, PoolReturn, Unused}
}

// Run executes the analyzers over the packages and returns every
// diagnostic, sorted by position. whole says the packages are the
// entire module; module-wide analyzers run only then, since on a
// partial load a use may sit in a package that was not loaded.
func Run(pkgs []Package, analyzers []*Analyzer, whole bool) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Module != nil {
			if whole {
				diags = append(diags, a.Module(pkgs)...)
			}
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Analyzer: a, Fset: pkg.Fset, Path: pkg.Path, Files: pkg.Files, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags
}

// Load resolves the argument patterns against the module root into
// parsed packages. A trailing "/..." recurses; a plain path names one
// directory. Paths are resolved against the root, not the working
// directory, so package-relative invariants key correctly no matter
// where rbacvet runs from. whole is true when a pattern covered the
// whole module ("./...").
func Load(root string, patterns []string) (pkgs []Package, whole bool, err error) {
	seen := map[string]bool{}
	for _, pat := range patterns {
		recursive := false
		if p, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, p
		}
		if pat == "" || pat == "." {
			pat = root
		}
		if !filepath.IsAbs(pat) {
			pat = filepath.Join(root, pat)
		}
		whole = whole || recursive && pat == root
		dirs := []string{pat}
		if recursive {
			dirs = nil
			err := filepath.WalkDir(pat, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != pat && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				dirs = append(dirs, path)
				return nil
			})
			if err != nil {
				return nil, false, err
			}
		}
		for _, dir := range dirs {
			rel, err := filepath.Rel(root, dir)
			if err != nil || seen[rel] {
				continue
			}
			seen[rel] = true
			pkg, ok, err := loadPackage(dir, filepath.ToSlash(rel))
			if err != nil {
				return nil, false, err
			}
			if ok {
				pkgs = append(pkgs, pkg)
			}
		}
	}
	return pkgs, whole, nil
}

// loadPackage parses the .go files of dir into a Package with the given
// module-relative path, test files apart. ok is false when the
// directory holds no Go files.
func loadPackage(dir, rel string) (Package, bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Package{}, false, err
	}
	pkg := Package{Path: rel, Fset: token.NewFileSet()}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(pkg.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return Package{}, false, err
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.Tests = append(pkg.Tests, f)
		} else {
			pkg.Files = append(pkg.Files, f)
		}
	}
	return pkg, len(pkg.Files)+len(pkg.Tests) > 0, nil
}

// importName returns the local identifier the file binds the given
// import path to ("" when not imported or blank/dot-imported).
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		// Default name: the last path element.
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return path[i+1:]
		}
		return path
	}
	return ""
}

// render flattens a selector chain ("e.obs.Traces") for comparison;
// non-chain expressions render as "".
func render(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := render(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return render(x.X)
	}
	return ""
}
