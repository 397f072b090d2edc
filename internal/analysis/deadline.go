package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Deadline requires every blocking net.Conn read/write in server
// (//swat:server) packages to be dominated by a deadline on every CFG
// path: a goroutine parked forever in conn.Read because its peer died
// silently is the failure mode TCP will not surface on its own, and
// pooled connections make it worse — a reused conn with no fresh
// deadline inherits whatever the previous request left (DESIGN §2.14).
//
// Facts: "rdl" (read deadline pending) and "wdl" (write deadline
// pending). SetDeadline gens both, SetReadDeadline/SetWriteDeadline
// one each; SetDeadline(time.Time{}) — the explicit clear — kills
// both. The meet is Must: the deadline has to hold on EVERY path into
// the I/O call. Flagged sites are method calls named Read*/Write* on
// values whose type implements net.Conn, and calls to functions whose
// name starts with read/write taking a net.Conn argument (io.ReadFull,
// the frame codec helpers).
//
// Functions whose callers bound the I/O declare it with
// //swat:deadline-held in the doc comment: the body is analyzed with
// both facts set from entry. Known hole, accepted and documented:
// reads routed through a bufio.Reader wrapping the conn are invisible
// (the reader, not the conn, is the receiver); the wire package keeps
// deadline calls adjacent to its bufio fills by convention.
var Deadline = &Analyzer{
	Name: "deadline",
	Doc: "every blocking net.Conn Read/Write in //swat:server packages must be dominated " +
		"by a Set{Read,Write}Deadline on every CFG path; //swat:deadline-held marks caller-bounded bodies",
	Run: runDeadline,
}

func runDeadline(pass *Pass) error {
	if !pass.Server() {
		return nil
	}
	conn := netConnInterface(pass.Pkg)
	if conn == nil {
		return nil // package graph never touches net: nothing to check
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			entry := Facts{}
			if FuncHasDirective(fd, DirDeadlineHeld) {
				entry = Facts{"rdl": true, "wdl": true}
			}
			checkDeadlineBody(pass, fd.Body, entry, conn)
		}
	}
	return nil
}

// netConnInterface digs net.Conn out of the transitive import graph.
func netConnInterface(pkg *types.Package) *types.Interface {
	netPkg := findImport(pkg, "net")
	if netPkg == nil {
		return nil
	}
	tn, ok := netPkg.Scope().Lookup("Conn").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, _ := tn.Type().Underlying().(*types.Interface)
	return iface
}

func checkDeadlineBody(pass *Pass, body *ast.BlockStmt, entry Facts, conn *types.Interface) {
	g := BuildCFG(body)
	transfer := func(n ast.Node, f Facts) {
		if _, ok := n.(*ast.DeferStmt); ok {
			return // runs at exit; cannot establish a deadline mid-path
		}
		inspectNoFuncLit(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "SetDeadline":
				if isZeroTimeArg(pass, call) {
					delete(f, "rdl")
					delete(f, "wdl")
				} else {
					f["rdl"], f["wdl"] = true, true
				}
			case "SetReadDeadline":
				if isZeroTimeArg(pass, call) {
					delete(f, "rdl")
				} else {
					f["rdl"] = true
				}
			case "SetWriteDeadline":
				if isZeroTimeArg(pass, call) {
					delete(f, "wdl")
				} else {
					f["wdl"] = true
				}
			}
			return true
		})
	}
	visit := func(n ast.Node, f Facts) {
		skip := rangeBodyOf(n)
		ast.Inspect(n, func(m ast.Node) bool {
			if m == skip {
				return false
			}
			if fl, ok := m.(*ast.FuncLit); ok && m != n {
				// A deadline is connection state, not control flow: it
				// stays armed however the closure is invoked, so the
				// closure inherits the facts at its definition point.
				checkDeadlineBody(pass, fl.Body, f.Clone(), conn)
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkIOCall(pass, call, f, conn)
			return true
		})
	}
	visitFacts(g, Must, entry, transfer, visit)
}

// checkIOCall flags a blocking conn I/O call whose required deadline
// fact is absent.
func checkIOCall(pass *Pass, call *ast.CallExpr, f Facts, conn *types.Interface) {
	report := func(dir, what string) {
		fact, set := "rdl", "SetReadDeadline"
		if dir == "write" {
			fact, set = "wdl", "SetWriteDeadline"
		}
		if f[fact] {
			return
		}
		pass.Reportf(call.Pos(),
			"%s on net.Conn is not dominated by %s/SetDeadline on every path (%s); set a deadline before the I/O or mark the function //swat:deadline-held",
			dir, set, what)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if implementsConn(pass.TypesInfo.TypeOf(sel.X), conn) {
			name := sel.Sel.Name
			switch {
			case name == "Read" || strings.HasPrefix(name, "Read"):
				report("read", exprString(sel.X)+"."+name)
			case name == "Write" || strings.HasPrefix(name, "Write"):
				report("write", exprString(sel.X)+"."+name)
			}
			return
		}
	}
	// Helper functions threading a conn: io.ReadFull(conn, ...),
	// readBinFrame(conn), ...
	var name string
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return
	}
	lower := strings.ToLower(name)
	var dir string
	switch {
	case strings.HasPrefix(lower, "read"):
		dir = "read"
	case strings.HasPrefix(lower, "write"):
		dir = "write"
	default:
		return
	}
	for _, arg := range call.Args {
		if implementsConn(pass.TypesInfo.TypeOf(arg), conn) {
			report(dir, name+"(conn)")
			return
		}
	}
}

func implementsConn(t types.Type, conn *types.Interface) bool {
	if t == nil {
		return false
	}
	// A package qualifier (io.ReadFull's "io") types as Invalid, and
	// types.Implements is vacuously true for it.
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Invalid {
		return false
	}
	if types.Implements(t, conn) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), conn)
	}
	return false
}

// isZeroTimeArg reports a call whose single argument is the zero
// time.Time composite literal — the documented "clear the deadline"
// form.
func isZeroTimeArg(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	cl, ok := unparen(call.Args[0]).(*ast.CompositeLit)
	if !ok || len(cl.Elts) != 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(cl)
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == "time" && n.Obj().Name() == "Time"
}
