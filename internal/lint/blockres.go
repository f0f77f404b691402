package lint

import (
	"go/ast"
	"go/types"
)

// BlockRes is the static twin of the out-of-core tier's bounded-residency
// contract. A *Block handed out by graph.ReadBlock or a BlockCache lookup is
// memory the cache's byte budget accounts for only while the cache holds it:
// eviction drops the cache's reference, not the block, so an alias kept past
// the superstep that fetched the block is resident memory the budget no
// longer sees. The sequential-scan accessors (BlockGraph.OutNeighbors and
// InNeighbors, reached directly or through partition.Adjacency) hand out
// rows decoded into a scan chunk that is valid only until the next call by
// the Adjacency contract; keeping one pins the chunk. FlashGraph enforces the
// same page-cache ownership discipline at runtime; here a retained block or
// row is a diagnostic, not an unbounded heap.
//
// Tainted values are (a) anything of type Block (so the taint crosses
// function boundaries by construction — returning the block itself is fine,
// callers re-taint it), and (b) slices returned by a scan accessor, tracked
// through local aliases and module callees whose summaries flow a parameter
// to a return. Values a Block's Each yields are copies and carry no taint.
//
// Violations are the sinks that outlive the scope: stores to fields, globals,
// maps, or slices; channel sends; go/defer captures; returning a scan row;
// and passing tainted memory to a module function whose summary says it
// retains its argument. The cache's own bookkeeping and the scan MRU are the
// sanctioned owners and are marked //flash:blockowner.
var BlockRes = &Analyzer{
	Name: "blockres",
	Doc:  "blocks and block-scan rows may not outlive their superstep scope (they escape the cache budget)",
	Run:  runBlockRes,
}

func runBlockRes(p *Pass) error {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			f := p.Mod.FuncOf(p.Info.Defs[fd.Name])
			if f == nil {
				continue
			}
			if f.HasFuncMarker("blockowner") {
				continue // cache internals: the sanctioned owner of block memory
			}
			checkBlockRes(p, f)
		}
	}
	return nil
}

func checkBlockRes(p *Pass, f *Func) {
	// Local fixpoint: identifiers aliasing decoded adjacency memory.
	tainted := map[types.Object]bool{}
	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := p.Info.Uses[e]
			if obj == nil {
				obj = p.Info.Defs[e]
			}
			return tainted[obj]
		case *ast.SliceExpr:
			return taintedExpr(e.X)
		case *ast.CallExpr:
			if isScanCall(p.Info, e) {
				return true
			}
			// A module callee may flow a tainted argument back out.
			if callee := p.Mod.CalleeOf(p.Info, e); callee != nil {
				for j, a := range e.Args {
					if flag(callee.Sum.FlowsToRet, paramIndex(callee, j, len(e.Args))) &&
						(taintedExpr(a) || isBlockExpr(p.Info, a)) {
						return true
					}
				}
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range asg.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				var rhs ast.Expr
				switch {
				case len(asg.Lhs) == len(asg.Rhs):
					rhs = asg.Rhs[i]
				case len(asg.Rhs) == 1:
					rhs = asg.Rhs[0]
				default:
					continue
				}
				if !taintedExpr(rhs) {
					continue
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj != nil && !tainted[obj] {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	escapes := func(e ast.Expr) bool { return taintedExpr(e) || isBlockExpr(p.Info, e) }

	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				switch {
				case len(n.Lhs) == len(n.Rhs):
					rhs = n.Rhs[i]
				case len(n.Rhs) == 1:
					rhs = n.Rhs[0]
				default:
					continue
				}
				if !escapes(rhs) {
					continue
				}
				switch l := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					if obj := p.Info.Uses[l]; obj != nil && p.Info.Defs[l] == nil && !declaredIn(obj, f.Decl) {
						p.Reportf(n.Pos(), "block memory stored in package state outlives its superstep scope and the cache budget; copy it out")
					}
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					p.Reportf(n.Pos(), "block memory stored through %s outlives its superstep scope and the cache budget; copy it out or mark the owner //flash:blockowner", types.ExprString(lhs))
				}
			}
		case *ast.SendStmt:
			if escapes(n.Value) {
				p.Reportf(n.Pos(), "block memory sent on a channel outlives its superstep scope and the cache budget; copy it out")
			}
		case *ast.GoStmt:
			reportBlockCapture(p, f, n.Call, tainted, "go")
		case *ast.DeferStmt:
			reportBlockCapture(p, f, n.Call, tainted, "defer")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				// Returning the *Block itself is fine — the taint is
				// type-carried and re-attaches at every caller. Returning a
				// scan row hides the provenance, so it escapes.
				if taintedExpr(res) && !isBlockExpr(p.Info, res) {
					p.Reportf(n.Pos(), "returning a block-scan row; it is valid only until the next scan call — copy it")
				}
			}
		case *ast.CallExpr:
			callee := p.Mod.CalleeOf(p.Info, n)
			if callee == nil || callee.HasFuncMarker("blockowner") {
				return true
			}
			for j, a := range n.Args {
				if flag(callee.Sum.RetainsParam, paramIndex(callee, j, len(n.Args))) && escapes(a) {
					p.Reportf(n.Pos(), "block memory passed to %s, which retains its argument past the call", callee.Name())
				}
			}
		}
		return true
	})
}

// reportBlockCapture flags go/defer calls whose arguments or closure captures
// alias block memory.
func reportBlockCapture(p *Pass, f *Func, call *ast.CallExpr, tainted map[types.Object]bool, kind string) {
	offends := false
	for _, a := range call.Args {
		if isBlockExpr(p.Info, a) {
			offends = true
		}
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && tainted[p.Info.Uses[id]] {
			offends = true
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok && !offends {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			// A capture is declared in the enclosing function but outside the
			// literal; a block the goroutine fetches for itself is its own.
			if obj := p.Info.Uses[id]; obj != nil && (tainted[obj] || isBlockObj(obj)) &&
				declaredIn(obj, f.Decl) && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End()) {
				offends = true
			}
			return true
		})
	}
	if offends {
		p.Reportf(call.Pos(), "block memory captured by %s outlives its superstep scope; copy what the %s needs", kind, kind)
	}
}

// isBlockExpr reports whether e's static type is (a pointer to) a struct
// type named Block — matched by name, like commerr's receiver table, so
// fixtures can model the contract without importing flash/graph.
func isBlockExpr(info *types.Info, e ast.Expr) bool {
	t := typeOfExpr(info, e)
	if t == nil {
		return false
	}
	return isBlockTypeNamed(t)
}

func isBlockObj(obj types.Object) bool {
	return obj != nil && isBlockTypeNamed(obj.Type())
}

func isBlockTypeNamed(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Block" {
		return false
	}
	_, isStruct := named.Underlying().(*types.Struct)
	return isStruct
}

// scanReceivers names the types whose OutNeighbors/InNeighbors results are
// block-scan rows: the block graph itself and the partitioner's Adjacency
// interface it is reached through (an in-memory Graph's rows are not).
var scanReceivers = map[string]bool{"BlockGraph": true, "Adjacency": true}

// isScanCall reports whether call is OutNeighbors or InNeighbors on a scan
// receiver.
func isScanCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "OutNeighbors" && sel.Sel.Name != "InNeighbors") {
		return false
	}
	t := typeOfExpr(info, sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && scanReceivers[named.Obj().Name()]
}
