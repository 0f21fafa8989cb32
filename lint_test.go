package prodsynth

import (
	"testing"

	"prodsynth/internal/lint"
)

// TestVetsynthSelfScan runs the full vetsynth analyzer suite over the
// module: every invariant the suite encodes — injectable clocks,
// context-first entry points, I/O-free catalog and registry critical sections,
// %w-wrapped sentinels, join-guarded goroutines —
// holds for the tree as committed. A finding here reproduces exactly what
// `go run ./cmd/vetsynth ./...` would print in CI.
func TestVetsynthSelfScan(t *testing.T) {
	pkgs, err := lint.LoadModule(".")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("loaded only %d packages — self-scan is not covering the tree", len(pkgs))
	}
	for _, d := range lint.RunAnalyzers(pkgs, lint.All()) {
		t.Errorf("%s", d)
	}
}
