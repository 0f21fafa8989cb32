package lint

import "go/ast"

// clockPackages are the packages that expose an injectable Clock: every
// timing decision in them must be testable without the wall clock, so
// fault schedules — retry backoff, breaker cooldowns, per-attempt
// deadlines — stay deterministic under FakeClock-driven tests. Elsewhere
// the wall clock only feeds telemetry durations, which never reach a
// result's bytes.
var clockPackages = map[string]bool{
	"prodsynth/internal/fetch": true,
}

// ClockCheck flags direct wall-clock and global-randomness use —
// time.Now, time.Since, and any math/rand import — in the packages that
// expose an injectable Clock. The one legitimate wall-clock site (fetch's
// realClock implementation) and deterministic seeded RNGs carry the
// allowlist annotation (lint:allow).
var ClockCheck = &Analyzer{
	Name: "clockcheck",
	Doc:  "no direct time.Now/time.Since/math/rand in packages with an injectable Clock",
	Run:  runClockCheck,
}

func runClockCheck(pass *Pass) {
	if !clockPackages[pass.Pkg.Path] {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, imp := range f.Ast.Imports {
			if p := imp.Path.Value; p == `"math/rand"` || p == `"math/rand/v2"` {
				pass.Reportf(imp.Pos(),
					"%s imports math/rand: randomness here must be seeded and injectable (see Policy.JitterSeed), not global", pass.Pkg.Path)
			}
		}
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			sel := f.PkgSel(e, "time")
			if sel == "Now" || sel == "Since" {
				pass.Reportf(n.Pos(),
					"direct time.%s in %s: route it through the package's injectable Clock so tests stay deterministic", sel, pass.Pkg.Path)
				return false
			}
			return true
		})
	}
}
