// Package lint is prodsynth's repo-specific static analyzer suite: the
// codebase's invariants — injectable clocks, context-first entry points,
// I/O-free shard critical sections, %w-wrapped sentinels, and
// join-guarded goroutines — encoded as machine-checked analysis passes
// instead of prose and CI greps.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Reportf) but is self-contained on the standard
// library: the root module stays zero-dependency, and the passes are
// syntactic (go/ast over parsed source, import-table resolution, no type
// checking). That bounds what they can see — they reason per function and
// per file, not interprocedurally — which is exactly the level the
// invariants are stated at.
//
// # Suppression
//
// A finding that is a justified exception is allowlisted in the source,
// next to the code it covers, with a reason:
//
//	//lint:allow <analyzer> <reason>
//
// placed either at the end of the offending line or on its own line
// immediately above it. The reason is mandatory: an allow comment without
// one does not suppress anything (and is itself reported), so every
// exception in the tree documents why it is one.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named pass over a package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and lint:allow comments.
	Name string
	// Doc is the one-line invariant the analyzer encodes.
	Doc string
	// Run reports the analyzer's findings on pass.Pkg via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: an invariant violation at a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one parsed (not type-checked) package: every .go file of one
// directory, including test files — analyzers that should not look at
// tests skip File.Test themselves.
type Package struct {
	// Path is the import path, e.g. "prodsynth/internal/stream".
	Path string
	// Dir is the directory the files were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*File
}

// File is one parsed source file plus the lookup tables analyzers need.
type File struct {
	Ast *ast.File
	// Name is the file's base name, e.g. "stream.go".
	Name string
	// Test reports a *_test.go file.
	Test bool
	// Imports maps the local name of each import to its path, e.g.
	// "rand" -> "math/rand". Dot and blank imports are omitted.
	Imports map[string]string

	allows []allow
}

// ImportsPath reports whether the file imports path (under any name).
func (f *File) ImportsPath(path string) bool {
	for _, p := range f.Imports {
		if p == path {
			return true
		}
	}
	return false
}

// PkgSel returns the selector name if e is a call-ready selector
// `<ident>.<Sel>` whose ident is f's local name for the import path, e.g.
// PkgSel(e, "time") returning "Now" for `time.Now`. Empty when not.
func (f *File) PkgSel(e ast.Expr, path string) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if f.Imports[id.Name] != path {
		return ""
	}
	return sel.Sel.Name
}

// allow is one parsed //lint:allow comment.
type allow struct {
	line     int
	analyzer string
	reason   string
}

var allowRe = regexp.MustCompile(`^\s*lint:allow\s+(\S+)\s*(.*)$`)

// parseAllows extracts the file's lint:allow comments.
func parseAllows(fset *token.FileSet, f *ast.File) []allow {
	var out []allow
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			m := allowRe.FindStringSubmatch(text)
			if m == nil {
				continue
			}
			out = append(out, allow{
				line:     fset.Position(c.Pos()).Line,
				analyzer: m[1],
				reason:   strings.TrimSpace(strings.TrimSuffix(m[2], "*/")),
			})
		}
	}
	return out
}

// suppressed reports whether an allow comment for analyzer covers line:
// same line as the finding, or the line immediately above it.
func (f *File) suppressed(analyzer string, line int) bool {
	for _, a := range f.allows {
		if a.analyzer == analyzer && a.reason != "" && (a.line == line || a.line == line-1) {
			return true
		}
	}
	return false
}

// RunAnalyzers runs every analyzer over every package, applies the
// lint:allow suppressions, and returns the surviving diagnostics sorted
// by position. Allow comments missing their mandatory reason are
// themselves diagnostics.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		byFile := make(map[string]*File, len(pkg.Files))
		for _, f := range pkg.Files {
			byFile[f.Name] = f
			for _, a := range f.allows {
				if a.reason == "" {
					out = append(out, Diagnostic{
						Analyzer: "lintallow",
						Pos:      token.Position{Filename: pkg.Dir + "/" + f.Name, Line: a.line, Column: 1},
						Message:  fmt.Sprintf("lint:allow %s needs a reason: every allowlisted exception documents why it is one", a.analyzer),
					})
				}
			}
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg}
			a.Run(pass)
			for _, d := range pass.diags {
				if f, ok := byFile[baseName(d.Pos.Filename)]; ok && f.suppressed(a.Name, d.Pos.Line) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// All returns the full suite, the set cmd/vetsynth and the repo self-scan
// run.
func All() []*Analyzer {
	return []*Analyzer{
		ClockCheck,
		CtxFirst,
		LockScope,
		ErrWrapCheck,
		SpawnCheck,
	}
}
