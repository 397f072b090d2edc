package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SentinelCheck enforces the sentinel-error contracts the wire and
// cluster layers depend on (ErrPoolClosed, RemoteError, io.EOF): a
// pool that re-pools a desynchronized connection because an error was
// mishandled on one path is exactly the class of bug this check exists
// for. In server (//swat:server) and deterministic packages:
//
//   - sentinel comparisons use errors.Is, never ==/!=: any wrapping
//     layer (fmt.Errorf %w, RemoteError) silently breaks equality;
//   - type assertions on an error value use errors.As for the same
//     reason;
//   - an error result is never discarded with a blank assignment
//     unless a //lint:allow sentinelcheck directive records why;
//   - in server-package _test.go files, any all-blank `_ = x`
//     assignment needs the same recorded justification (the alloc-test
//     guard-reference idiom is the legitimate case).
var SentinelCheck = &Analyzer{
	Name: "sentinelcheck",
	Doc: "sentinel errors (ErrPoolClosed, RemoteError, io.EOF) must be matched with " +
		"errors.Is/errors.As, never ==; error discards `_ =` need a //lint:allow reason",
	Run: runSentinelCheck,
}

func runSentinelCheck(pass *Pass) error {
	if !pass.Server() && !pass.Deterministic() {
		return nil
	}
	errType := types.Universe.Lookup("error").Type()
	errIface := errType.Underlying().(*types.Interface)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					checkSentinelCompare(pass, n, errIface)
				}
			case *ast.TypeAssertExpr:
				// n.Type == nil is the `x.(type)` of a type switch,
				// which go vet already polices; a direct assertion on
				// an error misses wrapped chains.
				if n.Type == nil {
					return true
				}
				if t := pass.TypesInfo.TypeOf(n.X); t != nil && types.Identical(t, errType) {
					pass.Reportf(n.Pos(),
						"type assertion on error %s misses wrapped errors; use errors.As",
						exprString(n.X))
				}
			case *ast.SwitchStmt:
				// `switch err { case io.EOF: }` is the same == in
				// disguise.
				if n.Tag == nil || !isErrorType(pass.TypesInfo.TypeOf(n.Tag), errIface) {
					return true
				}
				for _, c := range n.Body.List {
					for _, e := range c.(*ast.CaseClause).List {
						if name := sentinelName(pass, e); name != "" {
							pass.Reportf(e.Pos(),
								"sentinel %s matched by switch case (==); wrapped errors break equality — use errors.Is(err, %s)",
								name, name)
						}
					}
				}
			case *ast.AssignStmt:
				checkErrorDiscard(pass, n, errIface)
			}
			return true
		})
	}
	if pass.Server() {
		// Test files are parsed but not type-checked, so the check is
		// syntactic: any all-blank assignment must carry a recorded
		// justification. The alloc tests' guard references (`_ = sink`)
		// are legitimate — and each one now says so in-line.
		for _, f := range pass.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || !allBlank(as.Lhs) {
					return true
				}
				pass.Reportf(as.Pos(),
					"test discards a value with a blank assignment; if deliberate (guard reference, forced evaluation), //lint:allow sentinelcheck with the reason")
				return true
			})
		}
	}
	return nil
}

// checkSentinelCompare flags ==/!= where one side is error-typed and
// the other names a package-level error variable (a sentinel).
func checkSentinelCompare(pass *Pass, be *ast.BinaryExpr, errIface *types.Interface) {
	xErr := isErrorType(pass.TypesInfo.TypeOf(be.X), errIface)
	yErr := isErrorType(pass.TypesInfo.TypeOf(be.Y), errIface)
	if !xErr && !yErr {
		return
	}
	name := sentinelName(pass, be.X)
	if name == "" {
		name = sentinelName(pass, be.Y)
	}
	if name == "" {
		return // err == nil, err == otherLocalErr: not sentinel matching
	}
	hint := "errors.Is(err, " + name + ")"
	if be.Op == token.NEQ {
		hint = "!" + hint
	}
	pass.Reportf(be.Pos(),
		"sentinel %s compared with %s; wrapped errors break equality — use %s",
		name, be.Op, hint)
}

// sentinelName resolves e to a package-level error variable and
// returns its rendered name, or "".
func sentinelName(pass *Pass, e ast.Expr) string {
	var id *ast.Ident
	switch e := unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "" // locals, fields, nil
	}
	errType := types.Universe.Lookup("error").Type()
	if !isErrorType(v.Type(), errType.Underlying().(*types.Interface)) {
		return ""
	}
	return exprString(e)
}

func isErrorType(t types.Type, errIface *types.Interface) bool {
	return t != nil && types.Implements(t, errIface)
}

// checkErrorDiscard flags `_ = f()` (all LHS blank) when any assigned
// value is error-typed.
func checkErrorDiscard(pass *Pass, as *ast.AssignStmt, errIface *types.Interface) {
	if !allBlank(as.Lhs) {
		return
	}
	for _, rhs := range as.Rhs {
		t := pass.TypesInfo.TypeOf(rhs)
		if t == nil {
			continue
		}
		if tup, ok := t.(*types.Tuple); ok {
			for i := 0; i < tup.Len(); i++ {
				if isErrorType(tup.At(i).Type(), errIface) {
					reportDiscard(pass, as, rhs)
					return
				}
			}
			continue
		}
		if isErrorType(t, errIface) {
			reportDiscard(pass, as, rhs)
			return
		}
	}
}

func reportDiscard(pass *Pass, as *ast.AssignStmt, rhs ast.Expr) {
	pass.Reportf(as.Pos(),
		"error from %s discarded with a blank assignment; handle it, propagate it, or //lint:allow sentinelcheck with a reason",
		exprString(rhs))
}

func allBlank(lhs []ast.Expr) bool {
	if len(lhs) == 0 {
		return false
	}
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}
