package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness follows the analysistest convention: a fixture line
// annotated `// want "substr"` expects exactly one diagnostic on that line
// whose message contains substr, and every diagnostic must be claimed by
// a want marker. Fixtures load under an explicit import path so the
// per-package scoping rules fire the same way they do on the real tree.

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	var out []*expectation
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				out = append(out, &expectation{file: e.Name(), line: i + 1, substr: m[1]})
			}
		}
	}
	return out
}

// runFixture runs one analyzer over one fixture package and compares its
// diagnostics 1:1 against the fixture's want markers.
func runFixture(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	pkg, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	wants := loadExpectations(t, dir)
	for _, d := range diags {
		file := filepath.Base(d.Pos.Filename)
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == file && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want diagnostic containing %q, got none", filepath.Join(dir, w.file), w.line, w.substr)
		}
	}
}

func TestClockCheckFixture(t *testing.T) {
	runFixture(t, ClockCheck, "testdata/clockcheck", "prodsynth/internal/durable")
}

// TestClockCheckScope runs the failing fixture under an import path with
// no injectable Clock: the pass must stay silent outside its packages.
func TestClockCheckScope(t *testing.T) {
	pkg, err := LoadDir("testdata/clockcheck", "prodsynth/internal/report")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{ClockCheck}); len(diags) != 0 {
		t.Errorf("clockcheck fired outside its scoped packages: %v", diags)
	}
}

func TestCtxFirstFixture(t *testing.T) {
	runFixture(t, CtxFirst, "testdata/ctxfirst", "prodsynth/internal/stream")
}

func TestLockScopeFixture(t *testing.T) {
	runFixture(t, LockScope, "testdata/lockscope", "prodsynth/internal/catalog")
}

func TestErrWrapCheckFixture(t *testing.T) {
	runFixture(t, ErrWrapCheck, "testdata/errwrapcheck", "prodsynth/internal/snapfmt")
}

func TestSpawnCheckFixture(t *testing.T) {
	runFixture(t, SpawnCheck, "testdata/spawncheck", "prodsynth/internal/serve")
}

// TestSpawnCheckExempt runs the failing spawn fixture as internal/pipe,
// the goroutine-runtime package the pass exempts.
func TestSpawnCheckExempt(t *testing.T) {
	pkg, err := LoadDir("testdata/spawncheck", "prodsynth/internal/pipe")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{SpawnCheck}); len(diags) != 0 {
		t.Errorf("spawncheck fired in exempt package: %v", diags)
	}
}

// TestAllowRequiresReason: an allow comment with no reason suppresses
// nothing — the underlying finding survives and the bare allow is itself
// reported.
func TestAllowRequiresReason(t *testing.T) {
	pkg, err := LoadDir("testdata/lintallow", "prodsynth/internal/durable")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{ClockCheck})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (bare allow + unsuppressed finding): %v", len(diags), diags)
	}
	var sawAllow, sawClock bool
	for _, d := range diags {
		switch d.Analyzer {
		case "lintallow":
			sawAllow = strings.Contains(d.Message, "needs a reason")
		case "clockcheck":
			sawClock = strings.Contains(d.Message, "time.Now")
		}
	}
	if !sawAllow || !sawClock {
		t.Errorf("missing expected diagnostics (lintallow=%v clockcheck=%v): %v", sawAllow, sawClock, diags)
	}
}

// TestAllSuite pins the suite roster: vetsynth and the repo self-scan run
// exactly these passes.
func TestAllSuite(t *testing.T) {
	want := []string{"clockcheck", "ctxfirst", "lockscope", "errwrapcheck", "spawncheck"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing Doc or Run", a.Name)
		}
	}
}
