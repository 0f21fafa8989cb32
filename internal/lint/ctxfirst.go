package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// ctxFirstPackages are where the context-first entry-point rule applies:
// the public surface (root package) and the pipeline/serving/ingestion
// layers whose exported functions fan out work or touch the outside
// world.
var ctxFirstPackages = map[string]bool{
	"prodsynth":                 true,
	"prodsynth/internal/core":   true,
	"prodsynth/internal/stream": true,
	"prodsynth/internal/serve":  true,
	"prodsynth/internal/fetch":  true,
}

// ioFuncs are direct stdlib calls that make a function "perform I/O" for
// the ctx-first rule. The list is deliberately the blocking entry points,
// not every os helper: the rule is about functions a caller may need to
// cancel.
var ioFuncs = map[string]map[string]bool{
	"os": {
		"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
		"WriteFile": true, "ReadDir": true, "Remove": true, "RemoveAll": true,
		"Rename": true, "MkdirAll": true, "Mkdir": true,
	},
	"net": {"Listen": true, "Dial": true, "DialTimeout": true},
}

// CtxFirst enforces the v2 API's context discipline: exported functions
// in the root package and internal/{core,stream,serve,fetch} that spawn
// goroutines, block on channels, or perform I/O take context.Context as
// their first parameter, and library packages never manufacture contexts
// with context.Background()/context.TODO() — only cmd/, examples/, and
// tests may. Deliberate detached contexts (drain/reload lifecycles)
// carry lint:allow annotations.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "context-first exported entry points; no context.Background/TODO in library packages",
	Run:  runCtxFirst,
}

func runCtxFirst(pass *Pass) {
	path := pass.Pkg.Path
	library := !strings.HasPrefix(path, "prodsynth/cmd/") && !strings.HasPrefix(path, "prodsynth/examples/") &&
		path != "prodsynth/cmd" && path != "prodsynth/examples"
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		if library {
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel := f.PkgSel(call.Fun, "context"); sel == "Background" || sel == "TODO" {
					pass.Reportf(call.Pos(),
						"context.%s in library package %s: take a ctx from the caller — only cmd/, examples/, and tests make root contexts", sel, path)
				}
				return true
			})
		}
		if !ctxFirstPackages[path] {
			continue
		}
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			why := blockingWork(f, fd)
			if why == "" {
				continue
			}
			if !firstParamIsContext(f, fd) {
				pass.Reportf(fd.Name.Pos(),
					"exported %s %s but does not take context.Context as its first parameter", fd.Name.Name, why)
			}
		}
	}
}

// blockingWork reports why fd needs a context: it spawns a goroutine,
// blocks on channel operations, or performs direct I/O. Empty when none
// of those appear in its body.
func blockingWork(f *File, fd *ast.FuncDecl) string {
	why := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// A goroutine body's own channel traffic is the spawned
			// work's, not the caller's blocking surface; the GoStmt case
			// below already catches the spawn itself.
			return false
		case *ast.GoStmt:
			why = "spawns goroutines"
			return false
		case *ast.SendStmt, *ast.SelectStmt:
			why = "blocks on channel operations"
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				why = "blocks on channel operations"
				return false
			}
		case *ast.RangeStmt:
			// Ranging over a channel blocks; over anything else it does
			// not, and without types we cannot tell. Leave it to the
			// explicit receive/send cases.
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if names, ok := ioFuncs[f.Imports[id.Name]]; ok && names[sel.Sel.Name] {
						why = "performs I/O (" + id.Name + "." + sel.Sel.Name + ")"
						return false
					}
				}
			}
		}
		return true
	})
	return why
}

// firstParamIsContext reports whether fd's first parameter is typed
// context.Context.
func firstParamIsContext(f *File, fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	return f.PkgSel(params.List[0].Type, "context") == "Context"
}
