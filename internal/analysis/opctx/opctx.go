// Package opctx enforces the OpCtx threading discipline of the canonical
// entry points (DESIGN.md §12): a function that already receives an
// obs.OpCtx is *inside* an operation, and the operation's meter, trace,
// span parentage and fault scope must flow through that value. Minting a
// fresh context mid-operation — obs.Ctx(...), a bare obs.OpCtx{} literal,
// vclock.NewMeter(...), obs.NewTrace() — silently forks virtual time: the
// new meter starts at zero, its costs never merge back, and the golden
// traces skew without any test failing.
//
// The analyzer reports those four constructors inside any function that
// has an OpCtx parameter — declared function or function literal — and
// inside every closure nested within one. The approved patterns
// remain available: ctx.WithMeter/WithTrace/WithFaults/EnsureMeter derive
// from the in-scope context, and ctx.Detach() is the sanctioned way to
// hand a sub-context to a goroutine with a deterministic merge point.
// A function that takes a *vclock.Meter rather than an OpCtx is not inside
// an operation, so the rule does not fire on its obs.Ctx(meter) call.
//
// A second rule keeps the operation surface OpCtx-first: in SurfacePkgs
// (core, hv, cloned), an exported function or method taking a
// *vclock.Meter without an obs.OpCtx is reported.
//
// Waive with //nephele:opctx-ok and a justification (e.g. an intentional
// throwaway meter in a diagnostic path).
package opctx

import (
	"go/ast"
	"go/types"

	"nephele/internal/analysis"
)

// Analyzer is the OpCtx-threading pass.
var Analyzer = &analysis.Analyzer{
	Name:     "opctx",
	Doc:      "functions holding an obs.OpCtx must thread it, never mint a fresh meter/trace/context mid-operation",
	Suppress: "nephele:opctx-ok",
	Run:      run,
}

// ObsPkgs are the import paths of the observability package defining
// OpCtx, Ctx and NewTrace. Tests override this to point at fixtures.
var ObsPkgs = []string{"nephele/internal/obs"}

// MeterPkgs are the import paths of the virtual-clock package defining
// NewMeter.
var MeterPkgs = []string{"nephele/internal/vclock"}

// SurfacePkgs are the import paths of the operation-surface packages whose
// exported entry points must be OpCtx-first: an exported function or
// method there taking a *vclock.Meter without an obs.OpCtx re-introduces
// the meter-threading shape the OpCtx redesign retired.
var SurfacePkgs = []string{
	"nephele/internal/core",
	"nephele/internal/hv",
	"nephele/internal/cloned",
}

func in(paths []string, path string) bool {
	for _, p := range paths {
		if p == path {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	// The obs package itself constructs contexts by definition.
	if in(ObsPkgs, pass.Pkg.Path()) {
		return nil
	}
	surface := in(SurfacePkgs, pass.Pkg.Path())
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if surface && d.Name.IsExported() &&
					!hasOpCtxParam(pass, d.Type.Params) && hasMeterParam(pass, d.Type.Params) {
					pass.Reportf(d.Pos(), "meter-first signature in %s: exported %s takes *vclock.Meter without an obs.OpCtx; entry points are OpCtx-first", pass.Pkg.Name(), d.Name.Name)
				}
				if d.Body == nil {
					continue
				}
				if hasOpCtxParam(pass, d.Type.Params) {
					checkBody(pass, d.Body)
				} else {
					// The declared function is not an operation, but a
					// function literal inside it that itself takes an
					// OpCtx is one.
					checkLits(pass, d.Body)
				}
			case *ast.GenDecl:
				// Package-level var initializers can hold OpCtx-taking
				// function literals too.
				checkLits(pass, d)
			}
		}
	}
	return nil
}

// hasMeterParam reports whether the parameter list contains a
// *vclock.Meter.
func hasMeterParam(pass *analysis.Pass, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, field := range params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		p, ok := tv.Type.(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := p.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Meter" && obj.Pkg() != nil && in(MeterPkgs, obj.Pkg().Path()) {
			return true
		}
	}
	return false
}

// checkLits finds function literals that themselves take an obs.OpCtx
// parameter in code not already covered by an enclosing checked function,
// and checks their bodies. checkBody covers everything nested inside a
// match, so the walk does not descend past one.
func checkLits(pass *analysis.Pass, n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok && hasOpCtxParam(pass, fl.Type.Params) {
			checkBody(pass, fl.Body)
			return false
		}
		return true
	})
}

// hasOpCtxParam reports whether the parameter list contains an obs.OpCtx
// (by value or pointer).
func hasOpCtxParam(pass *analysis.Pass, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, field := range params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		if isOpCtx(tv.Type) {
			return true
		}
	}
	return false
}

func isOpCtx(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "OpCtx" && obj.Pkg() != nil && in(ObsPkgs, obj.Pkg().Path())
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok && isOpCtx(tv.Type) {
				pass.Reportf(n.Pos(), "bare OpCtx literal inside an operation: it drops the in-scope meter, trace and fault scope; derive from ctx instead")
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	switch {
	case in(ObsPkgs, path) && fn.Name() == "Ctx":
		pass.Reportf(call.Pos(), "obs.Ctx mints a fresh OpCtx inside an operation that already holds one; thread the in-scope ctx (WithMeter/WithFaults derive from it)")
	case in(ObsPkgs, path) && fn.Name() == "NewTrace":
		pass.Reportf(call.Pos(), "obs.NewTrace inside an operation forks the trace; use ctx.Detach() for a sub-trace with a deterministic Absorb merge point")
	case in(MeterPkgs, path) && fn.Name() == "NewMeter":
		pass.Reportf(call.Pos(), "vclock.NewMeter inside an operation forks virtual time from zero and never merges back; use the ctx meter (EnsureMeter for optional metering)")
	}
}
