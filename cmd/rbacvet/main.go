// Command rbacvet is the repo's go vet-style invariant checker: custom
// analysis passes over the engine source encoding rules the compiler
// cannot see.
//
// Usage:
//
//	rbacvet [dir|dir/... ...]
//
// With no arguments it checks ./... from the module root. Passes:
//
//	engineclock  no time.Now/Since/Until in internal/sentinel or
//	             internal/event — all time flows through the injected
//	             engine clock (internal/clock)
//	obsnil       optional observability pointers (ins, Traces, Sampler,
//	             Slow) are nil-checked before every hot-path deref
//	snapimmut    rbacvet:snapshot structs are never written after
//	             publication
//	batchsnap    batch-path loops in internal/sentinel never re-capture
//	             the snapshot or epoch per tuple
//	poolreturn   a sync.Pool value is put back or handed off on every
//	             return path
//
// Diagnostics print one per line as "file:line:col: pass: message";
// exit status is 1 when any were found, 2 on usage or parse errors.
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"activerbac/internal/vet"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := load(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbacvet:", err)
		os.Exit(2)
	}
	diags := vet.Run(pkgs, vet.Analyzers())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// load resolves the argument patterns into parsed packages. A trailing
// "/..." recurses; a plain path names one directory. Paths are resolved
// against the module root so package-relative invariants key correctly
// no matter where rbacvet runs from.
func load(patterns []string) ([]vet.Package, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	var pkgs []vet.Package
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
				return nil, err
			}
		}
		for _, dir := range dirs {
			rel, err := filepath.Rel(root, dir)
			if err != nil || seen[rel] {
				continue
			}
			seen[rel] = true
			pkg, ok, err := vet.LoadPackage(dir, filepath.ToSlash(rel))
			if err != nil {
				return nil, err
			}
			if ok {
				pkgs = append(pkgs, pkg)
			}
		}
	}
	return pkgs, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
