package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// lockScopePackages are where the hot mutexes live: the catalog store's
// one RWMutex and the match registry's one mutex. Each guards its whole
// structure, so a fetch, channel wait, or fsync inside a critical section
// stalls every reader and writer of the catalog or of the registry.
var lockScopePackages = map[string]bool{
	"prodsynth/internal/catalog": true,
	"prodsynth/internal/match":   true,
}

// LockScope flags blocking or re-entrant work inside a mutex critical
// section: channel operations, goroutine spawns, direct file I/O (os.*,
// Sync), fetcher calls, and invocations of function-typed parameters
// (user callbacks). The one documented exception is the catalog.Observer
// hook — Observe* method calls are the WAL's commit point and run inside
// the store's write critical section by design.
//
// The pass is per-function and position-based: a region counts as locked
// from an x.Lock()/x.RLock() call to the matching same-receiver unlock
// (or to the function's end for deferred unlocks). Helpers that run with
// a caller-held lock (the *Locked naming convention) are outside its
// reach — the convention in their name is the contract the caller's
// flagged region enforces.
var LockScope = &Analyzer{
	Name: "lockscope",
	Doc:  "no channel ops, I/O, fetcher calls, or user callbacks while the catalog or registry mutex is held",
	Run:  runLockScope,
}

func runLockScope(pass *Pass) {
	if !lockScopePackages[pass.Pkg.Path] {
		return
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockScope(pass, f, fd)
		}
	}
}

// lockEvent is one mutex transition in source order.
type lockEvent struct {
	pos    token.Pos
	recv   string // printed receiver, e.g. "sh.mu"
	lock   bool
	defers bool
}

func checkLockScope(pass *Pass, f *File, fd *ast.FuncDecl) {
	var events []lockEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred unlock holds the lock to function end. A deferred
			// func literal containing unlocks counts the same way.
			ast.Inspect(n.Call.Fun, func(inner ast.Node) bool {
				if call, ok := inner.(*ast.CallExpr); ok {
					if recv, op := mutexOp(call); op == "Unlock" || op == "RUnlock" {
						events = append(events, lockEvent{pos: n.Pos(), recv: recv, defers: true})
					}
				}
				return true
			})
			if recv, op := mutexOp(n.Call); op == "Unlock" || op == "RUnlock" {
				events = append(events, lockEvent{pos: n.Pos(), recv: recv, defers: true})
			}
			return false
		case *ast.CallExpr:
			recv, op := mutexOp(n)
			switch op {
			case "Lock", "RLock":
				events = append(events, lockEvent{pos: n.Pos(), recv: recv, lock: true})
			case "Unlock", "RUnlock":
				events = append(events, lockEvent{pos: n.Pos(), recv: recv})
			}
		}
		return true
	})
	if len(events) == 0 {
		return
	}

	// Build held intervals per receiver: Lock opens at its position,
	// the next same-receiver unlock closes it (deferred unlocks close at
	// function end). Branch-dependent unlocks make this an
	// under-approximation — an early conditional unlock ends the region
	// for the straight-line reading — which keeps the pass free of false
	// positives at the cost of missing some held code.
	type interval struct{ from, to token.Pos }
	var held []interval
	end := fd.End()
	open := map[string]token.Pos{}
	deferred := map[string]bool{}
	for _, ev := range events {
		switch {
		case ev.lock:
			if _, ok := open[ev.recv]; !ok {
				open[ev.recv] = ev.pos
			}
		case ev.defers:
			deferred[ev.recv] = true
		default:
			if from, ok := open[ev.recv]; ok && !deferred[ev.recv] {
				held = append(held, interval{from, ev.pos})
				delete(open, ev.recv)
			}
		}
	}
	for _, from := range open {
		held = append(held, interval{from, end})
	}
	if len(held) == 0 {
		return
	}
	inHeld := func(pos token.Pos) bool {
		for _, iv := range held {
			if pos > iv.from && pos < iv.to {
				return true
			}
		}
		return false
	}

	funcParams := funcTypedParams(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil || !inHeld(n.Pos()) {
			return true
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine spawned while a mutex is held in %s", fd.Name.Name)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while a mutex is held in %s", fd.Name.Name)
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select while a mutex is held in %s", fd.Name.Name)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive while a mutex is held in %s", fd.Name.Name)
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				if strings.HasPrefix(name, "Observe") {
					return true // the documented catalog.Observer commit hook
				}
				if id, ok := fun.X.(*ast.Ident); ok && f.Imports[id.Name] == "os" {
					pass.Reportf(n.Pos(), "os.%s while a mutex is held in %s: no file I/O inside a shard critical section", name, fd.Name.Name)
					return true
				}
				switch name {
				case "Sync", "Fsync":
					pass.Reportf(n.Pos(), "%s() while a mutex is held in %s: no fsync inside a shard critical section", name, fd.Name.Name)
				case "Fetch", "FetchContext":
					pass.Reportf(n.Pos(), "fetcher call %s while a mutex is held in %s", name, fd.Name.Name)
				}
			case *ast.Ident:
				if funcParams[fun.Name] {
					pass.Reportf(n.Pos(), "call to function-typed parameter %q while a mutex is held in %s: user callbacks must not run inside a shard critical section", fun.Name, fd.Name.Name)
				}
			}
		}
		return true
	})
}

// mutexOp decodes a call of the form <expr>.mu-ish.Lock/RLock/Unlock/
// RUnlock, returning the printed receiver and the operation. Only
// receivers that look like mutexes count: a terminal selector (or
// identifier) containing "mu" — sh.mu, d.mu, r.lock would not match, but
// the repo's convention is mu/­muFoo fields.
func mutexOp(call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	op := sel.Sel.Name
	if op != "Lock" && op != "RLock" && op != "Unlock" && op != "RUnlock" {
		return "", ""
	}
	recv := exprString(sel.X)
	last := recv
	if i := strings.LastIndexByte(recv, '.'); i >= 0 {
		last = recv[i+1:]
	}
	if !strings.Contains(strings.ToLower(last), "mu") {
		return "", ""
	}
	return recv, op
}

// funcTypedParams returns the names of fd's parameters with function
// types — the "user callback" shape lockscope polices.
func funcTypedParams(fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if _, ok := field.Type.(*ast.FuncType); !ok {
			continue
		}
		for _, name := range field.Names {
			out[name.Name] = true
		}
	}
	return out
}

// exprString prints a dotted identifier chain; other shapes collapse to
// a stable placeholder so indexed receivers (b.shards[i].mu) still pair
// their Lock with their Unlock textually.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[i]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return exprString(e.X)
	default:
		return "?"
	}
}
