package lint

import (
	"go/ast"
	"go/token"
)

// KernelAlloc flags heap allocations inside Executor.For kernel closures.
// A For body is the per-iteration unit the device layer fans out across
// workers: tree levels run it once per node, the compare layer once per
// chunk. An allocation there (make, new, a slice or map literal, or an
// append that grows a captured slice) is multiplied by the loop's trip
// count and turns a memory-bandwidth-bound kernel into a GC-bound one —
// the buildFieldTree per-build []error was exactly this bug. Buffers
// belong outside the kernel, sized once, or in per-worker scratch.
//
// The check is syntactic: any method call named For whose final argument
// is a function literal is treated as a kernel dispatch (Serial and Pool
// share that shape through the Executor interface). An
// append whose destination is declared inside the closure (a local or a
// parameter) is not flagged; growing a captured slice is — it is both an
// allocation and, under a parallel executor, a data race. Genuinely cold
// For bodies can suppress with //lint:ignore kernelalloc <why>.
var KernelAlloc = &Analyzer{
	Name:     "kernelalloc",
	Doc:      "heap allocation (make/new/slice or map literal/append to captured slice) inside an Executor.For kernel closure",
	Severity: SeverityError,
	Run:      runKernelAlloc,
}

func runKernelAlloc(p *Pass) {
	for _, f := range p.Files {
		forEachFunc(f, func(node ast.Node, body *ast.BlockStmt, sc *funcScope) {
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if lit := forKernel(call); lit != nil {
					checkKernelBody(p, lit)
				}
				// Keep walking: a nested For dispatch inside this kernel is
				// found by this same Inspect and checked once on its own.
				return true
			})
		})
	}
}

// forKernel returns the kernel closure of an Executor.For dispatch: a
// method call named For whose last argument is a function literal.
func forKernel(call *ast.CallExpr) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "For" || len(call.Args) < 2 {
		return nil
	}
	lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
	if !ok {
		return nil
	}
	return lit
}

// checkKernelBody reports allocations in one kernel closure. Nested For
// dispatches are skipped here — their closures get their own visit.
func checkKernelBody(p *Pass, lit *ast.FuncLit) {
	locals := closureLocals(lit)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if forKernel(n) != nil {
				return false
			}
			fn, ok := n.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			switch fn.Name {
			case "make":
				p.Reportf(n.Pos(), "make allocates on every kernel iteration; hoist the buffer out of the For body or use per-worker scratch")
			case "new":
				p.Reportf(n.Pos(), "new allocates on every kernel iteration; hoist the value out of the For body")
			case "append":
				if len(n.Args) == 0 {
					return true
				}
				if id, ok := n.Args[0].(*ast.Ident); ok && !locals[id.Name] {
					p.Reportf(n.Pos(), "append grows captured %q inside a kernel closure (per-iteration allocation, and a data race under a parallel executor); preallocate outside the For body", id.Name)
				}
			}
		case *ast.CompositeLit:
			switch t := n.Type.(type) {
			case *ast.ArrayType:
				// [N]T{...} is stack-allocatable; only slice literals heap.
				if t.Len == nil {
					p.Reportf(n.Pos(), "slice literal allocates on every kernel iteration; hoist it out of the For body")
				}
			case *ast.MapType:
				p.Reportf(n.Pos(), "map literal allocates on every kernel iteration; hoist it out of the For body")
			}
		}
		return true
	})
}

// closureLocals collects the identifiers declared inside the closure:
// parameters, named results, := definitions, var declarations, and range
// variables. Everything else reached from the body is a capture.
func closureLocals(lit *ast.FuncLit) map[string]bool {
	locals := map[string]bool{}
	record := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				locals[name.Name] = true
			}
		}
	}
	record(lit.Type.Params)
	record(lit.Type.Results)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					locals[id.Name] = true
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						locals[name.Name] = true
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				if id, ok := n.Key.(*ast.Ident); ok {
					locals[id.Name] = true
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					locals[id.Name] = true
				}
			}
		case *ast.FuncLit:
			record(n.Type.Params)
			record(n.Type.Results)
		}
		return true
	})
	return locals
}
