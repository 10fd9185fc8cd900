package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// errcheck flags silently dropped error results:
//
//   - a call statement whose result set includes an error (assigning the
//     error to _ is an explicit, visible discard and is accepted);
//   - defer f.Close() where f is a file opened for writing in the same
//     file — on write paths the close error is the write error (buffered
//     data is flushed at close), so it must be checked.
//
// Calls whose dropped error is conventionally meaningless are ignored:
// fmt.Print*/Fprint* and the Write* methods of bufio.Writer (its error
// sticks, and callers check Flush, which is not exempt), and methods on
// strings.Builder and bytes.Buffer (documented to never fail).
func errcheck(m *Module, p *Package, cfg *Config) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		writeFiles := collectWriteFiles(p, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok || !returnsErrorValue(p, call) || droppedErrorOK(p, call) {
					return true
				}
				file, line, col := m.position(call.Pos())
				out = append(out, Diagnostic{
					File: file, Line: line, Col: col,
					Message: fmt.Sprintf("error result of %s is silently dropped; handle it or discard explicitly with _ =", callDesc(p, call)),
				})
			case *ast.DeferStmt:
				sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Close" {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || !writeFiles[p.Info.Uses[id]] {
					return true
				}
				file, line, col := m.position(n.Pos())
				out = append(out, Diagnostic{
					File: file, Line: line, Col: col,
					Message: fmt.Sprintf("defer %s.Close() on a file opened for writing drops the close error (the flush of buffered writes); check it, e.g. defer func() { if cerr := %s.Close(); ... }()", id.Name, id.Name),
				})
			}
			return true
		})
	}
	return out
}

// collectWriteFiles returns the objects bound to files opened for writing
// (os.Create, or os.OpenFile with a writable flag) anywhere in the file.
func collectWriteFiles(p *Package, f *ast.File) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(p, call)
		if fn == nil || !isPkgFunc(fn, "os") {
			return true
		}
		writable := fn.Name() == "Create" ||
			(fn.Name() == "OpenFile" && openFileWritable(call))
		if !writable {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := identObj(p, id); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// openFileWritable reports whether an os.OpenFile call's flag argument
// mentions a write-mode constant.
func openFileWritable(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	writable := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "O_WRONLY", "O_RDWR", "O_APPEND", "O_CREATE", "O_TRUNC":
				writable = true
			}
		}
		return true
	})
	return writable
}

func identObj(p *Package, id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// returnsErrorValue reports whether the call produces at least one error
// result.
func returnsErrorValue(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(tv.Type)
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}

// droppedErrorOK reports whether dropping the call's error is accepted by
// convention.
func droppedErrorOK(p *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	if fn == nil {
		return false
	}
	if isPkgFunc(fn, "fmt") && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				switch obj.Pkg().Path() + "." + obj.Name() {
				case "strings.Builder", "bytes.Buffer":
					return true
				case "bufio.Writer":
					return strings.HasPrefix(fn.Name(), "Write")
				}
			}
		}
	}
	return false
}

func callDesc(p *Package, call *ast.CallExpr) string {
	if fn := calleeFunc(p, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return types.TypeString(sig.Recv().Type(), types.RelativeTo(p.Types)) + "." + fn.Name()
		}
		if fn.Pkg() != nil && fn.Pkg() != p.Types {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	return "call"
}
