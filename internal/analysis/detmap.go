package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// DetMap guards //swat:deterministic packages against Go's randomized
// map iteration order reaching observable output: wire frames,
// experiment tables, or any float accumulation (float addition is not
// associative, so even a "commutative" sum over a map differs between
// runs in the last ulp — enough to break golden traces). A range over
// a map is flagged when its body has order-dependent effects:
//
//   - writes to state declared outside the loop, including writes
//     through pointer-typed locals derived from the loop variables;
//   - calls whose results are discarded (sends, logs, emits);
//   - go/defer/send statements;
//   - returning a value derived from the iteration variables.
//
// Recognized order-independent idioms stay silent:
//
//   - delete(m, k) and m[k] = v on the ranged map itself
//     (per-entry write-back);
//   - collect-then-sort: appending to a slice that a sort.* or
//     slices.Sort* call orders after the loop, before use.
//
// Anything else needs an ordered key slice — or a //lint:allow detmap
// with a reason arguing order independence.
var DetMap = &Analyzer{
	Name: "detmap",
	Doc: "forbid order-dependent effects inside range-over-map loops in //swat:deterministic " +
		"packages; iterate a sorted key slice or use a recognized order-independent idiom",
	Run: runDetMap,
}

func runDetMap(pass *Pass) error {
	if !pass.Deterministic() {
		return nil
	}
	for _, f := range pass.Files {
		// Track the enclosing block stack so the collect-then-sort idiom
		// can look at the statements following a range loop.
		var blocks []*ast.BlockStmt
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			switch x := n.(type) {
			case *ast.BlockStmt:
				blocks = append(blocks, x)
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.TypeOf(x.X)) {
					var encl *ast.BlockStmt
					for i := len(blocks) - 1; i >= 0; i-- {
						if containsStmt(blocks[i], x) {
							encl = blocks[i]
							break
						}
					}
					checkMapRange(pass, x, encl)
				}
			}
			return true
		})
	}
	return nil
}

// containsStmt reports whether stmt is a direct child of block.
func containsStmt(block *ast.BlockStmt, stmt ast.Stmt) bool {
	for _, s := range block.List {
		if s == stmt {
			return true
		}
	}
	return false
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange inspects one range-over-map body for order-dependent
// effects. enclosingBlock is the innermost block containing the range
// statement (for the collect-then-sort lookahead); it may be nil.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, enclosingBlock *ast.BlockStmt) {
	keyObj := rangeVarObj(pass, rs.Key)
	valObj := rangeVarObj(pass, rs.Value)
	mapText := exprText(pass.Fset, rs.X)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if x.Tok == token.DEFINE {
					continue // new locals are order-neutral by themselves
				}
				if mapWriteBack(pass, lhs, rs, mapText, keyObj) {
					continue
				}
				if target, outer := outerWrite(pass, lhs, rs); outer {
					if isSortedAfter(pass, lhs, rs, enclosingBlock) {
						continue
					}
					pass.Reportf(lhs.Pos(),
						"write to %s inside range over map %s: iteration order is randomized per run; iterate a sorted key slice (or //lint:allow detmap with an order-independence argument)",
						target, mapText)
				}
			}
		case *ast.IncDecStmt:
			if target, outer := outerWrite(pass, x.X, rs); outer {
				pass.Reportf(x.Pos(),
					"write to %s inside range over map %s: iteration order is randomized per run; iterate a sorted key slice (or //lint:allow detmap with an order-independence argument)",
					target, mapText)
			}
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				if isRangedMapDelete(pass, call, mapText, keyObj) {
					return true
				}
				pass.Reportf(x.Pos(),
					"call %s inside range over map %s: side effects observe randomized iteration order; iterate a sorted key slice",
					exprText(pass.Fset, call.Fun), mapText)
			}
		case *ast.SendStmt:
			pass.Reportf(x.Pos(), "channel send inside range over map %s: delivery order is randomized per run", mapText)
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "goroutine launch inside range over map %s: launch order is randomized per run", mapText)
		case *ast.DeferStmt:
			pass.Reportf(x.Pos(), "defer inside range over map %s: execution order is randomized per run", mapText)
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if referencesObj(pass, res, keyObj) || referencesObj(pass, res, valObj) {
					pass.Reportf(x.Pos(),
						"return of an iteration-dependent value inside range over map %s: which entry is returned is randomized per run", mapText)
					break
				}
			}
		case *ast.FuncLit:
			return false // closures are checked where they run
		}
		return true
	})
}

// referencesObj reports whether the expression mentions obj.
func referencesObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func rangeVarObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.ObjectOf(id)
}

func exprText(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "?"
	}
	return buf.String()
}

// mapWriteBack recognizes m[k] = v where m is the ranged map and k the
// ranged key: a per-entry update, independent of visit order.
func mapWriteBack(pass *Pass, lhs ast.Expr, rs *ast.RangeStmt, mapText string, keyObj types.Object) bool {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return false
	}
	if exprText(pass.Fset, idx.X) != mapText {
		return false
	}
	id, ok := ast.Unparen(idx.Index).(*ast.Ident)
	return ok && keyObj != nil && pass.TypesInfo.ObjectOf(id) == keyObj
}

// isRangedMapDelete recognizes delete(m, k) on the ranged map — the
// spec-sanctioned removal-during-range, order-independent.
func isRangedMapDelete(pass *Pass, call *ast.CallExpr, mapText string, keyObj types.Object) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 2 {
		return false
	}
	if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "delete" {
		return false
	}
	if exprText(pass.Fset, call.Args[0]) != mapText {
		return false
	}
	// Deleting the ranged key (or any key: removal is commutative when
	// the values are not otherwise consumed) — accept the common form.
	if keyObj == nil {
		return false
	}
	kid, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if ok && pass.TypesInfo.ObjectOf(kid) == keyObj {
		return true
	}
	return false
}

// outerWrite reports whether writing lhs mutates state that outlives
// the loop body: an identifier declared outside the loop, or any
// selector/index/star chain whose root is either declared outside or
// is a loop-local of pointer, slice, or map type (aliasing outer
// state).
func outerWrite(pass *Pass, lhs ast.Expr, rs *ast.RangeStmt) (string, bool) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return "", false
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return "", false
		}
		if declaredInside(obj, rs) {
			return "", false
		}
		return id.Name, true
	}
	root := identRootObj(pass.TypesInfo, lhs)
	if root == nil {
		return exprText(pass.Fset, lhs), true
	}
	if declaredInside(root, rs) && !aliasingType(root.Type()) {
		return "", false
	}
	return exprText(pass.Fset, lhs), true
}

func declaredInside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
}

// aliasingType reports whether a local of this type can reach state
// outside the loop (writes through it are shared-state writes).
func aliasingType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

// isSortedAfter recognizes the collect-then-sort idiom: lhs is a slice
// variable that some sort.* or slices.Sort* call orders in a statement
// following the range loop within the same block.
func isSortedAfter(pass *Pass, lhs ast.Expr, rs *ast.RangeStmt, block *ast.BlockStmt) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || block == nil {
		return false
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	past := false
	for _, stmt := range block.List {
		if stmt == ast.Stmt(rs) {
			past = true
			continue
		}
		if !past {
			continue
		}
		sorted := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || sorted {
				return !sorted
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pn, ok := pass.TypesInfo.ObjectOf(pkgID).(*types.PkgName); !ok ||
				(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
				return true
			}
			for _, arg := range call.Args {
				if aid, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(aid) == obj {
					sorted = true
				}
			}
			return true
		})
		if sorted {
			return true
		}
	}
	return false
}
