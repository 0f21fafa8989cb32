// Command vetsynth is prodsynth's repo-specific static analyzer suite:
// it machine-checks the invariants the codebase accumulated PR over PR —
// injectable clocks, context-first entry points, I/O-free catalog and
// registry critical sections, %w-wrapped sentinels, and join-guarded
// goroutines.
//
// Usage:
//
//	vetsynth [-list] [-only name,name] [module-dir | ./...]
//
// With no arguments it analyzes the module containing the current
// directory ("./..." is accepted as an alias for the same thing, so the
// CI invocation reads like go vet). Exit status is 1 when any
// unsuppressed diagnostic is reported, 2 on usage or load errors.
//
// Findings that are justified exceptions are suppressed in the source
// with a reasoned annotation on (or immediately above) the offending
// line:
//
//	//lint:allow <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"prodsynth/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: vetsynth [-list] [-only name,name] [module-dir | ./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var selected []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				selected = append(selected, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fmt.Fprintf(os.Stderr, "vetsynth: unknown analyzer %q\n", name)
			os.Exit(2)
		}
		analyzers = selected
	}

	dir := "."
	if args := flag.Args(); len(args) > 1 {
		flag.Usage()
		os.Exit(2)
	} else if len(args) == 1 && args[0] != "./..." && args[0] != "..." {
		dir = strings.TrimSuffix(args[0], "/...")
	}
	root, err := findModuleRoot(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetsynth: %v\n", err)
		os.Exit(2)
	}

	pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vetsynth: %v\n", err)
		os.Exit(2)
	}
	diags := lint.RunAnalyzers(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "vetsynth: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// findModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
