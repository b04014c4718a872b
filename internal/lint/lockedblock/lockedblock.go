// Package lockedblock defines the raillint analyzer that bans blocking
// operations while a sync.Mutex or sync.RWMutex is held.
//
// PR 2's deadlock came from exactly this: the opusnet server replied to
// clients with an unbuffered channel send while holding the state
// mutex; a slow reader stalled the send, the send kept the mutex, and
// every other connection then queued behind the lock. The shipped fix
// made the reply a select-with-default (drop rather than block) — the
// pattern this analyzer recognizes as safe.
//
// Within each function the analyzer tracks which mutexes are held by
// scanning statements in order: `mu.Lock()`/`mu.RLock()` adds mu to the
// held set, `mu.Unlock()`/`mu.RUnlock()` removes it, and `defer
// mu.Unlock()` leaves it held (the remainder of the function really
// does run under the lock). Branch bodies are scanned with a copy of
// the held set, so an early-unlock-and-return branch does not clear the
// lock for the fallthrough path. Function literals and `go` bodies are
// scanned as fresh functions — they run on their own goroutines or at
// another time, with their own lock discipline.
//
// While any mutex is held, the analyzer flags:
//
//   - a channel send, unless it is the comm case of a select that has a
//     default clause (non-blocking, the PR 2 fix shape);
//   - time.Sleep;
//   - logging: any log-package call, fmt console printing
//     (Print/Printf/Println), or a call through a selector named like a
//     leveled logger (Logf, Errorf, Warnf, Infof, Debugf, logf);
//   - network I/O: Read/Write-family methods on net-package types or
//     the net.Conn interface, and opusnet.ReadMessage/WriteMessage;
//   - a dial: any call that returns a net connection (net.Dial, a
//     listener's Accept, a dial function value), net.Pipe excepted;
//   - a context-taking call outside package context: a cancellable
//     blocking operation, such as an RPC client's round trip.
//
// Pure computation, map/slice work, and fmt.Sprintf under a lock are
// all fine and not flagged.
package lockedblock

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"photonrail/internal/lint/analysis"
)

// Analyzer flags blocking operations (sends, sleeps, logging, network
// I/O) performed while a sync mutex is held.
var Analyzer = &analysis.Analyzer{
	Name: "lockedblock",
	Doc: "flags channel sends, time.Sleep, logging, and network I/O while a " +
		"sync.Mutex/RWMutex is held (the PR 2 deadlock class)",
	Run: run,
}

// loggerNames are selector names treated as logging sinks regardless
// of the receiver's type — they cover testing.T, the stdlib logger,
// and this module's logf function fields.
var loggerNames = map[string]bool{
	"Logf": true, "logf": true, "Errorf": true, "Warnf": true,
	"Infof": true, "Debugf": true,
}

// connMethods are the blocking I/O methods recognized on net types.
var connMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"ReadString": true, "WriteString": true, "ReadFull": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			s := &scanner{pass: pass}
			s.block(fn.Body.List, map[string]token.Pos{})
		}
	}
	return nil
}

type scanner struct {
	pass *analysis.Pass
}

// copyHeld clones a held set for a branch scan.
func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// block scans stmts in order, mutating held as locks are taken and
// released at this nesting level.
func (s *scanner) block(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, st := range stmts {
		s.stmt(st, held)
	}
}

func (s *scanner) stmt(st ast.Stmt, held map[string]token.Pos) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if name, key, ok := s.lockOp(call); ok {
				switch name {
				case "Lock", "RLock":
					held[key] = call.Pos()
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				return
			}
		}
		s.expr(st.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function exit; other
		// deferred work runs at exit under whatever is then held — out of
		// scope for this in-order scan either way.
	case *ast.GoStmt:
		// The goroutine has its own lock discipline; scan it fresh.
		s.expr(st.Call.Fun, map[string]token.Pos{})
		for _, a := range st.Call.Args {
			s.expr(a, held)
		}
	case *ast.SendStmt:
		s.send(st, held)
		s.expr(st.Chan, held)
		s.expr(st.Value, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.expr(e, held)
		}
		for _, e := range st.Lhs {
			s.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.expr(e, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		s.expr(st.Cond, held)
		s.block(st.Body.List, copyHeld(held))
		if st.Else != nil {
			s.stmt(st.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		inner := copyHeld(held)
		if st.Init != nil {
			s.stmt(st.Init, inner)
		}
		if st.Cond != nil {
			s.expr(st.Cond, inner)
		}
		s.block(st.Body.List, inner)
		if st.Post != nil {
			s.stmt(st.Post, inner)
		}
	case *ast.RangeStmt:
		s.expr(st.X, held)
		s.block(st.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.stmt(st.Init, held)
		}
		if st.Tag != nil {
			s.expr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.SelectStmt:
		s.selectStmt(st, held)
	case *ast.BlockStmt:
		// A bare block shares the sequential flow of its parent.
		s.block(st.List, held)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v, held)
					}
				}
			}
		}
	}
}

// selectStmt exempts send cases when the select has a default clause
// — a non-blocking send is exactly the sanctioned reply pattern.
func (s *scanner) selectStmt(st *ast.SelectStmt, held map[string]token.Pos) {
	hasDefault := false
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if send, ok := cc.Comm.(*ast.SendStmt); ok {
			if !hasDefault {
				s.send(send, held)
			}
			// Value/chan expressions may still hide other sinks.
			s.expr(send.Chan, held)
			s.expr(send.Value, held)
		}
		s.block(cc.Body, copyHeld(held))
	}
}

// send flags a channel send performed under any held mutex.
func (s *scanner) send(send *ast.SendStmt, held map[string]token.Pos) {
	if lock, pos, ok := anyHeld(held); ok {
		s.pass.Reportf(send.Arrow,
			"channel send while %q is held (locked at %s): a stalled receiver keeps the mutex and deadlocks the server (PR 2); "+
				"release the lock first or use a select with default",
			lock, s.pass.Fset.Position(pos))
	}
}

// anyHeld picks a deterministic representative from the held set.
func anyHeld(held map[string]token.Pos) (string, token.Pos, bool) {
	best := ""
	var bestPos token.Pos
	for k, v := range held {
		if best == "" || k < best {
			best, bestPos = k, v
		}
	}
	return best, bestPos, best != ""
}

// expr inspects an expression for sink calls. Function literals are
// scanned as fresh functions.
func (s *scanner) expr(e ast.Expr, held map[string]token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.block(n.Body.List, map[string]token.Pos{})
			return false
		case *ast.CallExpr:
			s.call(n, held)
		}
		return true
	})
}

// call classifies one call expression as a sink (or not) under held.
func (s *scanner) call(call *ast.CallExpr, held map[string]token.Pos) {
	lock, pos, ok := anyHeld(held)
	if !ok {
		return
	}
	sel, _ := call.Fun.(*ast.SelectorExpr)

	report := func(what string) {
		s.pass.Reportf(call.Pos(),
			"%s while %q is held (locked at %s): blocking under a mutex stalls every other lock holder; release the lock first",
			what, lock, s.pass.Fset.Position(pos))
	}

	// Dials and round trips, whoever makes them: a call that yields a
	// net connection (net.Dial, a listener's Accept, a dial function
	// value) or takes a context.Context (a cancellable blocking call — an
	// RPC such as a client's stats query).
	if s.yieldsConn(call) {
		report("dial")
		return
	}
	if s.takesContext(call) {
		report("context-taking call")
		return
	}

	// Package-level functions: time.Sleep, log.*, fmt console printing,
	// opusnet frame I/O.
	if fn := s.calleeFunc(call); fn != nil && fn.Pkg() != nil {
		switch path := fn.Pkg().Path(); {
		case path == "time" && fn.Name() == "Sleep":
			report("time.Sleep")
			return
		case path == "log":
			report("log." + fn.Name())
			return
		case path == "fmt" && (fn.Name() == "Print" || fn.Name() == "Printf" || fn.Name() == "Println"):
			report("fmt." + fn.Name())
			return
		case strings.HasSuffix(path, "/opusnet") && (fn.Name() == "ReadMessage" || fn.Name() == "WriteMessage"):
			report("opusnet." + fn.Name())
			return
		}
		// Any other receiver-less package function — fmt.Errorf,
		// fmt.Sprintf, errors.New — only builds values; the leveled-logger
		// name heuristic below is for methods and func fields.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			return
		}
	}

	if sel == nil {
		return
	}
	// Leveled-logger shapes: s.logf(...), t.Logf(...), lg.Errorf(...).
	if loggerNames[sel.Sel.Name] {
		report(sel.Sel.Name)
		return
	}
	// Conn I/O: Read/Write methods whose receiver is a net type.
	if connMethods[sel.Sel.Name] && s.isNetType(s.pass.TypesInfo.TypeOf(sel.X)) {
		report("network " + sel.Sel.Name)
	}
}

// calleeFunc resolves a call's target to a *types.Func when it is a
// direct (possibly selector-qualified) function reference.
func (s *scanner) calleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := s.pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := s.pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// lockOp recognizes mu.Lock/RLock/Unlock/RUnlock where the method
// belongs to package sync, returning the method name and the lock key
// (the receiver expression, printed).
func (s *scanner) lockOp(call *ast.CallExpr) (name, key string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := s.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return sel.Sel.Name, types.ExprString(sel.X), true
}

// yieldsConn reports whether the call returns a net connection —
// except net.Pipe, which builds an in-memory pair without blocking.
func (s *scanner) yieldsConn(call *ast.CallExpr) bool {
	if fn := s.calleeFunc(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "net" && fn.Name() == "Pipe" {
		return false
	}
	t := s.pass.TypesInfo.TypeOf(call)
	results, ok := t.(*types.Tuple)
	if !ok {
		return s.isConnType(t)
	}
	for i := 0; i < results.Len(); i++ {
		if s.isConnType(results.At(i).Type()) {
			return true
		}
	}
	return false
}

// isConnType reports whether t is net.Conn or a concrete net
// connection type (TCPConn, UDPConn, …), directly or behind a pointer.
func (s *scanner) isConnType(t types.Type) bool {
	if !s.isNetType(t) {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return strings.HasSuffix(t.(*types.Named).Obj().Name(), "Conn")
}

// takesContext reports whether the callee's first parameter is a
// context.Context — outside package context itself, whose functions
// only derive values.
func (s *scanner) takesContext(call *ast.CallExpr) bool {
	sig, ok := s.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	if fn := s.calleeFunc(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
		return false
	}
	n, ok := sig.Params().At(0).Type().(*types.Named)
	return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "context" && n.Obj().Name() == "Context"
}

// isNetType reports whether t is a type from the net package or the
// net.Conn interface (directly or behind a pointer).
func (s *scanner) isNetType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net"
}
