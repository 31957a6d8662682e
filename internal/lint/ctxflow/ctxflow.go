// Package ctxflow implements the simlint analyzer that keeps cancellation
// plumbed through the library's service paths. PR 5 made every Lab entry
// point context-aware — slot waiters select on Done, sweeps stop at job
// boundaries, virtual-time slices observe ctx — and the campaign engine
// (`mptcpsim serve`) holds runs open indefinitely, where a dropped
// context means an unkillable job. The analyzer enforces the conventions
// that keep that property true as the roadmap grows:
//
//   - context.Context, when a function takes one, is the first parameter
//     (the Go API convention; anything else hides the flow);
//   - context.Background() and context.TODO() are banned in the library —
//     a fresh root context severs the caller's cancellation; only main
//     packages and tests may mint roots (tests are not loaded by the
//     lint loader, and main packages are out of this analyzer's scope);
//   - an exported function that blocks or fans out — channel operations,
//     select, go statements, or a call to any context-taking function —
//     must itself take a context.Context first, so cancellation reaches
//     the blocking point from the public API;
//   - a context parameter that is never observed on any path (never passed
//     on, never Done()/Err()-checked) is a finding: accepting a ctx and
//     ignoring it is worse than not taking one, because callers assume
//     cancellation works. Explicitly discarding with `_ context.Context`
//     is accepted (interface conformance).
//
// Scope: the library service packages internal/campaign, internal/harness,
// internal/runner, internal/scenario, internal/serve (and their
// subpackages) plus the facade package mptcpsim. internal/serve is in
// scope deliberately even though it is an HTTP layer: its jobs outlive
// requests, so severed cancellation there is exactly the failure mode
// this analyzer exists to prevent. The determinism analyzer, by contrast,
// gates campaign/serve OFF its scope — a service is free to use
// goroutines and wall-clock time because determinism lives below it.
package ctxflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mptcpsim/internal/lint"
)

// Analyzer is the context-flow checker.
var Analyzer = &lint.Analyzer{
	Name:      "ctxflow",
	Doc:       "require context.Context first and threaded through blocking/fan-out paths in harness, runner, scenario, and the facade; ban context.Background/TODO outside main and tests",
	AppliesTo: InScope,
	Run:       run,
}

const modulePath = "mptcpsim"

// scoped lists the context-aware library packages; subpackages inherit.
var scoped = []string{
	"internal/campaign",
	"internal/harness",
	"internal/runner",
	"internal/scenario",
	"internal/serve",
}

// InScope reports whether the analyzer applies to the package.
func InScope(pkgPath string) bool {
	if pkgPath == modulePath {
		return true // the facade
	}
	rest, ok := strings.CutPrefix(pkgPath, modulePath+"/")
	if !ok {
		return false
	}
	for _, d := range scoped {
		if rest == d || strings.HasPrefix(rest, d+"/") {
			return true
		}
	}
	return false
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	ctxParams := contextParams(pass, fd.Type)

	// Rule 1: ctx is the first parameter.
	for _, cp := range ctxParams {
		if cp.index > 0 {
			pass.Reportf(cp.pos, "context.Context must be the first parameter of %s (found at position %d)", fd.Name.Name, cp.index+1)
		}
	}

	if fd.Body == nil {
		return
	}

	// Rule 2: no fresh root contexts in library code.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := rootContextCall(pass, call); name != "" {
			pass.Reportf(call.Pos(), "context.%s() in library code severs the caller's cancellation; thread the caller's ctx instead (only main packages and tests may mint root contexts)", name)
		}
		return true
	})

	// Rule 3: exported blocking/fan-out functions must take ctx.
	if len(ctxParams) == 0 && fd.Name.IsExported() {
		if how := blocksOrFansOut(pass, fd.Body); how != "" {
			pass.Reportf(fd.Pos(), "exported %s %s but takes no context.Context; accept ctx as the first parameter so callers can cancel", fd.Name.Name, how)
		}
	}

	// Rule 4: a named ctx parameter must be observed somewhere.
	for _, cp := range ctxParams {
		if cp.obj == nil {
			continue // named _ or unnamed: explicitly discarded
		}
		if !observes(pass, fd.Body, cp.obj) {
			pass.Reportf(cp.pos, "ctx parameter of %s is never observed on any path; thread it into callees or select on ctx.Done() (rename to _ if conformance to an interface forces the parameter)", fd.Name.Name)
		}
	}
}

type ctxParam struct {
	index int
	pos   token.Pos
	obj   types.Object // nil when the parameter is unnamed or _
}

// contextParams returns the context.Context-typed parameters of ft with
// their flattened positions.
func contextParams(pass *lint.Pass, ft *ast.FuncType) []ctxParam {
	var out []ctxParam
	if ft.Params == nil {
		return nil
	}
	index := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if isContext(pass.Info.TypeOf(field.Type)) {
			if len(field.Names) == 0 {
				out = append(out, ctxParam{index: index, pos: field.Pos()})
			}
			for i, name := range field.Names {
				cp := ctxParam{index: index + i, pos: name.Pos()}
				if name.Name != "_" {
					cp.obj = pass.Info.Defs[name]
				}
				out = append(out, cp)
			}
		}
		index += n
	}
	return out
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// rootContextCall returns "Background" or "TODO" when call mints a fresh
// root context, "" otherwise.
func rootContextCall(pass *lint.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name()
	}
	return ""
}

// blocksOrFansOut describes the first blocking or fan-out construct in the
// body (including nested function literals), or "" when there is none:
// channel operations, select, go statements, or calls into context-taking
// functions (which need a ctx this function cannot legally mint).
func blocksOrFansOut(pass *lint.Pass, body *ast.BlockStmt) string {
	how := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if how != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			how = "spawns goroutines"
		case *ast.SelectStmt:
			how = "blocks in select"
		case *ast.SendStmt:
			how = "sends on a channel"
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				how = "receives from a channel"
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					how = "ranges over a channel"
				}
			}
		case *ast.CallExpr:
			if callee := ctxTakingCallee(pass, n); callee != "" {
				how = "calls the context-taking " + callee
			}
		}
		return how == ""
	})
	return how
}

// ctxTakingCallee names the called function when its signature's first
// parameter is a context.Context, "" otherwise.
func ctxTakingCallee(pass *lint.Pass, call *ast.CallExpr) string {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return "" // conversion
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return "" // builtin
	}
	if sig.Params().Len() == 0 || !isContext(sig.Params().At(0).Type()) {
		return ""
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "function value"
}

// observes reports whether obj (a ctx parameter) is referenced anywhere in
// the body, including nested function literals.
func observes(pass *lint.Pass, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}
