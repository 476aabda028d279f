// Command tracelint is a vet-style checker for the tracing discipline:
// every trace started with Tracer.StartAttempt / StartMessage /
// StartSession / StartSampledSession must be finished on every return path of the function
// that started it, or visibly hand the trace off to another owner. An
// unfinished trace never reaches the ring — the attempt it describes
// silently vanishes from /debug/traces and JSONL exports, which is
// exactly the kind of observability rot a linter should catch at CI
// time rather than a debugging session.
//
// Usage:
//
//	tracelint [dir ...]   (default ".", recursing; vendor, testdata
//	                       and _test.go files are skipped)
//
// The check is syntactic (no type information): it considers
// single-ident assignments whose right-hand side is a Start* selector
// call in files importing repro/internal/trace. A started trace is
// satisfied by a deferred Finish, or by a Finish call lexically between
// the start and each subsequent return (and the function end). It is
// exempt when ownership demonstrably moves: the ident is returned,
// stored into a field, slice, map or another variable, or placed in a
// composite literal. Passing the trace as a call argument is borrowing,
// not a transfer — callees record spans, the starter still finishes.
//
// Exit status is nonzero when any diagnostic is emitted.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// tracePath is the import whose Start*/Finish discipline is enforced.
const tracePath = "repro/internal/trace"

// startMethods are the trace constructors whose results must be
// finished.
var startMethods = map[string]bool{
	"StartAttempt":        true,
	"StartMessage":        true,
	"StartSession":        true,
	"StartSampledSession": true,
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	fset := token.NewFileSet()
	var diags []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				switch d.Name() {
				case "vendor", "testdata", ".git":
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return fmt.Errorf("parsing %s: %w", path, err)
			}
			diags = append(diags, lintFile(fset, file)...)
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracelint:", err)
			os.Exit(2)
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// lintFile checks one parsed file and returns its diagnostics.
func lintFile(fset *token.FileSet, file *ast.File) []string {
	if !importsTrace(file) {
		return nil
	}
	var diags []string
	// Visit every function (declaration or literal) and check the
	// starts it owns. Nested literals are visited in their own right,
	// so each start is checked against exactly its enclosing function.
	ast.Inspect(file, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			return true
		}
		if body == nil {
			return true
		}
		for _, s := range findStarts(body) {
			if escapes(body, s) {
				continue
			}
			if leaky, pos := unfinished(body, s); leaky {
				diags = append(diags, fmt.Sprintf(
					"%s: tracelint: trace %q started here is not finished on every return path (leaks at %s)",
					fset.Position(s.assign.Pos()), s.name, fset.Position(pos)))
			}
		}
		return true
	})
	return diags
}

// importsTrace reports whether the file imports the trace package.
func importsTrace(file *ast.File) bool {
	for _, imp := range file.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == tracePath {
			return true
		}
	}
	return false
}

// start is one `ident := x.Start*(...)` assignment.
type start struct {
	name   string
	assign *ast.AssignStmt
}

// findStarts collects the function's own Start* assignments, not those
// of nested function literals.
func findStarts(body *ast.BlockStmt) []start {
	var starts []start
	inspectShallow(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !startMethods[sel.Sel.Name] {
			return
		}
		starts = append(starts, start{name: id.Name, assign: as})
	})
	return starts
}

// escapes reports whether ownership of the started trace demonstrably
// moves out of the function: returned, stored into another variable,
// field, index or composite literal. Receiver use and call arguments
// are borrowing and do not count.
func escapes(body *ast.BlockStmt, s start) bool {
	after := s.assign.End()
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found || n == nil || n.End() <= after {
			return !found
		}
		switch node := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range node.Rhs {
				if !isIdent(rhs, s.name) {
					continue
				}
				if i < len(node.Lhs) && isIdent(node.Lhs[i], s.name) {
					continue // self-assignment, e.g. shadow refresh
				}
				found = true
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if isIdent(res, s.name) {
					found = true
				}
			}
		case *ast.CompositeLit:
			for _, elt := range node.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if isIdent(kv.Value, s.name) {
						found = true
					}
				} else if isIdent(elt, s.name) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// unfinished reports whether some return path after the start lacks a
// Finish call, and where that path exits. A deferred Finish covers all
// paths; otherwise every return (and the fall-off end of the body) must
// be lexically preceded by a Finish that follows the start. Lexical
// order is an approximation, but one that matches how the codebase
// writes terminal branches (finish, then return).
func unfinished(body *ast.BlockStmt, s start) (bool, token.Pos) {
	startEnd := s.assign.End()

	deferred := false
	var finishes []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeferStmt:
			if callsFinish(node.Call, s.name) || deferredClosureFinishes(node, s.name) {
				deferred = true
			}
		case *ast.CallExpr:
			if callsFinish(node, s.name) && node.Pos() > startEnd {
				finishes = append(finishes, node.Pos())
			}
		}
		return true
	})
	if deferred {
		return false, token.NoPos
	}

	covered := func(exit token.Pos) bool {
		for _, f := range finishes {
			if f < exit {
				return true
			}
		}
		return false
	}

	// Every return of this function (not of nested literals) after the
	// start is an exit; so is falling off the end of the body.
	var leak token.Pos
	inspectShallow(body, func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || ret.Pos() <= startEnd || leak != token.NoPos {
			return
		}
		if !covered(ret.Pos()) {
			leak = ret.Pos()
		}
	})
	if leak != token.NoPos {
		return true, leak
	}
	if n := len(body.List); n > 0 {
		if _, ok := body.List[n-1].(*ast.ReturnStmt); !ok && !covered(body.End()) {
			return true, body.End()
		}
	}
	return false, token.NoPos
}

// callsFinish reports whether call is `name.Finish*(...)`.
func callsFinish(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Finish") {
		return false
	}
	return isIdent(sel.X, name)
}

// deferredClosureFinishes reports whether a `defer func() { ... }()`
// body finishes the named trace.
func deferredClosureFinishes(d *ast.DeferStmt, name string) bool {
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && callsFinish(call, name) {
			found = true
		}
		return !found
	})
	return found
}

// isIdent reports whether expr is the plain identifier name.
func isIdent(expr ast.Expr, name string) bool {
	id, ok := expr.(*ast.Ident)
	return ok && id.Name == name
}

// inspectShallow walks the node but does not descend into nested
// function literals: their statements belong to the literal, not to
// the enclosing function.
func inspectShallow(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}
