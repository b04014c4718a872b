// Package ctxbg defines the raillint analyzer that bans manufactured
// root contexts in internal packages.
//
// Every request path in this codebase is context-threaded end to end
// (PR 4): deadlines, client cancel frames, and connection teardown all
// flow through one ctx chain. A context.Background() (or TODO()) in
// internal/... quietly detaches everything below it from that chain —
// the way the experiment CLIs' shared -timeout plumbing, when it lived
// in an internal package, detached CLI runs from Ctrl-C. New daemon and fleet code must thread its caller's context;
// the few legitimate roots (a server's lifetime base context, the
// deprecated compatibility wrappers) carry //lint:allow ctxbg
// annotations with reasons. Repo-root compatibility wrappers are
// outside internal/ and out of scope by construction.
package ctxbg

import (
	"go/ast"
	"go/types"
	"strings"

	"photonrail/internal/lint/analysis"
)

// Analyzer flags context.Background()/context.TODO() calls in
// internal packages.
var Analyzer = &analysis.Analyzer{
	Name: "ctxbg",
	Doc: "flags context.Background()/context.TODO() inside internal/... packages; " +
		"thread the caller's context instead, or annotate a true root with //lint:allow ctxbg <reason>",
	Run: run,
}

// inScope reports whether an import path is subject to the check.
func inScope(path string) bool {
	return path == "internal" ||
		strings.HasPrefix(path, "internal/") ||
		strings.Contains(path, "/internal/") ||
		strings.HasSuffix(path, "/internal")
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		// Any use of the function object counts — the direct call, an
		// aliased import, or a bound function value (`c := context.TODO`)
		// that escapes to be called elsewhere.
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if name := fn.Name(); name == "Background" || name == "TODO" {
				pass.Reportf(id.Pos(),
					"context.%s() in internal package %s: thread the caller's context (or annotate a true root: //lint:allow ctxbg <reason>)",
					name, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
