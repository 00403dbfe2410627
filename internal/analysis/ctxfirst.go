package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CtxFirst checks the engine's context plumbing contract (PR 7):
//
//  1. any function or method taking a context.Context takes it as the
//     FIRST parameter — mixed orders make the cancellation path easy to
//     drop on refactors;
//  2. library code never calls context.Background() or context.TODO():
//     a context manufactured mid-stack silently detaches the work from
//     the caller's cancellation and deadlines. The one legacy
//     context-free compat wrapper (Store.Put → PutContext) carries a
//     //chlint:allow ctxfirst annotation naming itself the exception.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context parameters come first; context.Background() only in annotated compat wrappers",
	Targets: []string{
		"repro/internal/cas",
		"repro/internal/build",
		"repro/internal/image",
		"repro/internal/daemon",
		"repro/internal/obs",
	},
}

func init() { CtxFirst.Run = runCtxFirst }

func runCtxFirst(prog *Program) []Finding {
	var out []Finding
	for _, pkg := range CtxFirst.scoped(prog) {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Type.Params == nil {
					continue
				}
				// Flatten the parameter list (grouped params share a type).
				var ptypes []types.Type
				var pnames []string
				for _, field := range fd.Type.Params.List {
					tv, ok := pkg.Info.Types[field.Type]
					if !ok {
						continue
					}
					n := len(field.Names)
					if n == 0 {
						n = 1 // unnamed parameter
					}
					for i := 0; i < n; i++ {
						ptypes = append(ptypes, tv.Type)
						if i < len(field.Names) {
							pnames = append(pnames, field.Names[i].Name)
						} else {
							pnames = append(pnames, "_")
						}
					}
				}
				for i, t := range ptypes {
					if i > 0 && isContextType(t) {
						out = append(out, Finding{CtxFirst.Name, prog.Fset.Position(fd.Pos()),
							fmt.Sprintf("%s takes context.Context as parameter %d (%s); context must come first",
								fd.Name.Name, i+1, pnames[i])})
					}
				}
			}
			// Ban manufactured contexts anywhere in the file, including
			// function literals and package-level variable initializers.
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
					return true
				}
				out = append(out, Finding{CtxFirst.Name, prog.Fset.Position(call.Pos()),
					fmt.Sprintf("context.%s() in library code detaches work from the caller's cancellation; thread a ctx parameter through (or annotate a compat wrapper)",
						sel.Sel.Name)})
				return true
			})
		}
	}
	return out
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
