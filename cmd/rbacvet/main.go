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
//	unused       every exported declaration under internal/ and client/
//	             is used by a non-test file or by another package's
//	             tests; runs only on ./... (the whole module), and a
//	             deliberate API opts out with //rbacvet:api <reason>
//
// Diagnostics print one per line as "file:line:col: pass: message";
// exit status is 1 when any were found, 2 on usage or parse errors.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"activerbac/internal/vet"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbacvet:", err)
		os.Exit(2)
	}
	pkgs, whole, err := vet.Load(root, args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbacvet:", err)
		os.Exit(2)
	}
	diags := vet.Run(pkgs, vet.Analyzers(), whole)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
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
