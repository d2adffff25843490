// Package errcheckio flags dropped errors on the I/O surfaces the
// backend's durability story depends on: store writes and closes on
// the persistence paths, JSON encodes onto http.ResponseWriter, and
// buffered-writer flushes. A store Append whose flush error vanishes
// is a trip the server acknowledged but will not replay after a crash
// — exactly the failure the store exists to prevent.
//
// Flagged in non-test files:
//
//   - expression statements that discard the result of a call to
//     Close, Flush, Sync, or Encode (f.Close(), w.Flush(), …)
//   - blank assignments of those calls (_ = f.Close()) — discarding
//     explicitly still needs a why; annotate it
//   - fmt.Fprint/Fprintf/Fprintln whose writer is not a local buffer
//     (writes to &buf never fail; writes to files and ResponseWriters
//     do)
//
// Deferred closes are not flagged: `defer f.Close()` on a read path is
// idiomatic, and write paths are expected to flush/close explicitly
// before returning (which this analyzer does check). Intentional
// discards are annotated //lint:allow errcheckio <reason>.
package errcheckio

import (
	"go/ast"
	"go/token"

	"busprobe/internal/lint/analysis"
)

// Analyzer is the errcheckio check.
var Analyzer = &analysis.Analyzer{
	Name: "errcheckio",
	Doc: "flag dropped errors on store/persistence writes, " +
		"ResponseWriter encodes, and file closes",
	Run: run,
}

// ioMethods are the error-returning I/O methods whose failures the
// persistence paths must not drop.
var ioMethods = map[string]bool{
	"Close":  true,
	"Flush":  true,
	"Sync":   true,
	"Encode": true,
}

// fprintFuncs are the fmt writers that return a write error.
var fprintFuncs = map[string]bool{
	"Fprint":   true,
	"Fprintf":  true,
	"Fprintln": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		imports := analysis.ImportAliases(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				return false // deferred closes are idiomatic; go bodies detach
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					checkDropped(pass, imports, call, "dropped")
				}
				// Keep descending: handler registrations pass function
				// literals as call arguments, and their bodies drop
				// errors too.
			case *ast.AssignStmt:
				if allBlank(stmt.Lhs) && len(stmt.Rhs) == 1 {
					if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok {
						checkDropped(pass, imports, call, "discarded")
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkDropped reports a call in discard position whose error the
// persistence story needs.
func checkDropped(pass *analysis.Pass, imports map[string]string, call *ast.CallExpr, how string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return // bare F() is a local helper, not the io.Closer method
	}
	name := sel.Sel.Name
	recv := analysis.ExprString(sel.X)
	qual, _ := analysis.CalleeName(call)
	switch {
	// A method on a value (x.Close(), j.f.Close() — not pkg.Close()):
	// the receiver's base qualifier must not resolve to an import.
	case ioMethods[name] && (qual == "" || imports[qual] == ""):
		if pass.Allowed(call.Pos(), "errcheckio") {
			return
		}
		pass.Reportf(call.Pos(),
			"%s error from %s.%s on an I/O path; handle it, fold it into the returned error, or annotate //lint:allow errcheckio <reason>",
			how, recv, name)
	case imports[qual] == "fmt" && fprintFuncs[name]:
		if len(call.Args) > 0 && isBufferAddress(call.Args[0]) {
			return // writes to a local buffer cannot fail
		}
		if pass.Allowed(call.Pos(), "errcheckio") {
			return
		}
		pass.Reportf(call.Pos(),
			"%s error from fmt.%s; writer failures (closed connections, full disks) vanish here — handle it or annotate //lint:allow errcheckio <reason>",
			how, name)
	}
}

// isBufferAddress matches the &b first argument of the
// strings.Builder / bytes.Buffer rendering idiom.
func isBufferAddress(e ast.Expr) bool {
	u, ok := e.(*ast.UnaryExpr)
	return ok && u.Op == token.AND
}

// allBlank reports whether every assignment target is the blank
// identifier.
func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(lhs) > 0
}
