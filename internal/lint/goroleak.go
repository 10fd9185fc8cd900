package lint

import (
	"go/ast"
	"go/types"
)

// goroleak flags go statements in the serving-layer packages
// (Config.GoroutinePkgs) that have no visible cancellation or tracking
// path. A goroutine counts as tracked when its body (or the named function
// it calls) references a sync.WaitGroup method, receives from or sends on
// a channel (directly, via select, or via range), closes one (the
// done-channel idiom: `go func() { done <- srv.Serve(l) }()`), or uses a
// context.Context — the mechanisms Close/shutdown paths use to observe or
// terminate it. Anything else must justify its lifetime with
// //lint:allow goroleak <reason>.
func goroleak(m *Module, p *Package, cfg *Config) []Diagnostic {
	if !cfg.GoroutinePkgs[p.Key] {
		return nil
	}
	decls := funcDeclsByObj(p)
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
			default:
				if fn := calleeFunc(p, g.Call); fn != nil {
					if fd := decls[fn]; fd != nil {
						body = fd.Body
					}
				}
			}
			if body != nil && hasCancellationPath(p, body) {
				return true
			}
			file, line, col := m.position(g.Pos())
			out = append(out, Diagnostic{
				File: file, Line: line, Col: col,
				Message: "goroutine has no visible cancellation path (no WaitGroup tracking, channel receive, select, or context); ensure shutdown terminates it or annotate with //lint:allow goroleak <reason>",
			})
			return true
		})
	}
	return out
}

// funcDeclsByObj maps each function object declared in the package to its
// declaration, so goroleak can look through `go name()` calls.
func funcDeclsByObj(p *Package) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

func hasCancellationPath(p *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin {
					found = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := p.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.SelectorExpr:
			if fn, ok := p.Info.Uses[n.Sel].(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					if isNamed(sig.Recv().Type(), "sync", "WaitGroup") {
						found = true
					}
				}
			}
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil && isNamed(obj.Type(), "context", "Context") {
				found = true
			}
		}
		return !found
	})
	return found
}

// isNamed reports whether t, or the type t points to, is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
