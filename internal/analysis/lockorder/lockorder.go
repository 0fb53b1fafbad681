// Package lockorder checks mutex acquisitions against a declared
// partial order. Mutex struct fields annotated
//
//	//entitylint:lock rank=N
//
// form lock classes; within any function (and transitively through
// same-package calls) an acquisition must have a rank strictly greater
// than every lock already held. Re-acquiring a held class — the same
// instance or another of the same type — is flagged as re-entrant.
// TryLock/TryRLock never block, so they are exempt.
//
// The checker evaluates each function body in rough execution order:
// straight-line statements thread a held-lock multiset through; loop
// bodies thread the same state (so defer-in-loop accumulation is
// visible); the branches of if/switch/select are each checked against
// the state at the branch point and their effects are then discarded,
// which keeps early-return lock/unlock idioms from polluting the
// fall-through path. Function literals are checked as independent
// functions starting from no held locks.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"entityid/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check mutex acquisitions against the declared //entitylint:lock rank order; " +
		"flag out-of-order and re-entrant acquisitions",
	Run: run,
}

// lockClass is one declared lock: a mutex field and its global rank.
type lockClass struct {
	obj  *types.Var
	name string
	rank int
}

// acquireKind distinguishes blocking acquisitions from releases.
type acquireKind int

const (
	opNone acquireKind = iota
	opAcquire
	opRelease
)

// methodOp classifies a mutex method name.
func methodOp(name string) acquireKind {
	switch name {
	case "Lock", "RLock":
		return opAcquire
	case "Unlock", "RUnlock":
		return opRelease
	}
	return opNone // TryLock/TryRLock are non-blocking: exempt
}

type checker struct {
	pass    *analysis.Pass
	classes map[*types.Var]*lockClass
	// acquires maps each package function to the set of lock classes it
	// (transitively) may acquire, for call-site checking.
	acquires map[*types.Func]map[*lockClass]bool
	decls    map[*types.Func]*ast.FuncDecl
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:     pass,
		classes:  map[*types.Var]*lockClass{},
		acquires: map[*types.Func]map[*lockClass]bool{},
		decls:    map[*types.Func]*ast.FuncDecl{},
	}
	c.collectClasses()
	if len(c.classes) == 0 {
		return nil, nil
	}
	c.collectDecls()
	c.buildSummaries()
	for _, fd := range sortedDecls(c.decls) {
		if fd.Body == nil {
			continue
		}
		c.checkBody(fd.Body)
	}
	return nil, nil
}

// collectClasses finds annotated mutex fields and validates their
// directives.
func (c *checker) collectClasses() {
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				d, ok := analysis.FindDirective("lock", field.Doc, field.Comment)
				if !ok {
					continue
				}
				rank, err := parseLockArgs(d.Args)
				if err != nil {
					c.pass.Reportf(d.Pos, "bad //entitylint:lock directive: %v", err)
					continue
				}
				for _, name := range field.Names {
					v, ok := c.pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					c.classes[v] = &lockClass{obj: v, name: className(v), rank: rank}
				}
			}
			return true
		})
	}
}

// parseLockArgs parses "rank=N".
func parseLockArgs(args string) (rank int, err error) {
	rank = -1
	for _, tok := range strings.Fields(args) {
		if !strings.HasPrefix(tok, "rank=") {
			return 0, fmt.Errorf("unknown argument %q (want rank=N)", tok)
		}
		rank, err = strconv.Atoi(strings.TrimPrefix(tok, "rank="))
		if err != nil || rank < 0 {
			return 0, fmt.Errorf("rank must be a non-negative integer, got %q", tok)
		}
	}
	if rank < 0 {
		return 0, fmt.Errorf("missing rank=N")
	}
	return rank, nil
}

// className renders a lock class as Owner.field for diagnostics.
func className(v *types.Var) string {
	return v.Name() + " (field of " + ownerName(v) + ")"
}

// ownerName best-effort names the struct type owning the field.
func ownerName(v *types.Var) string {
	if v.Pkg() == nil {
		return "?"
	}
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return "?"
}

func (c *checker) collectDecls() {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[fn] = fd
			}
		}
	}
}

func sortedDecls(decls map[*types.Func]*ast.FuncDecl) []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(decls))
	for _, fd := range decls {
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// buildSummaries computes, to a fixpoint, which lock classes each
// package function may acquire, directly or through same-package calls.
func (c *checker) buildSummaries() {
	callees := map[*types.Func][]*types.Func{}
	for fn, fd := range c.decls {
		c.acquires[fn] = map[*lockClass]bool{}
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // analyzed separately; may run on another goroutine
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cls, op := c.lockOp(call); cls != nil && op == opAcquire {
				c.acquires[fn][cls] = true
				return true
			}
			if callee := analysis.CalleeFunc(c.pass.TypesInfo, call); callee != nil {
				if _, local := c.decls[callee]; local {
					callees[fn] = append(callees[fn], callee)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			for _, callee := range cs {
				for cls := range c.acquires[callee] {
					if !c.acquires[fn][cls] {
						c.acquires[fn][cls] = true
						changed = true
					}
				}
			}
		}
	}
}

// lockOp classifies a call as a lock acquisition/release on a declared
// class, resolving the receiver expression to the annotated field.
func (c *checker) lockOp(call *ast.CallExpr) (*lockClass, acquireKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, opNone
	}
	op := methodOp(sel.Sel.Name)
	if op == opNone {
		return nil, opNone
	}
	// Receiver must end in a selection of an annotated field:
	// x.mu.Lock(), h.health.mu.RLock(), etc.
	recv, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil, opNone
	}
	obj, ok := c.pass.TypesInfo.Uses[recv.Sel].(*types.Var)
	if !ok {
		return nil, opNone
	}
	if cls, ok := c.classes[obj]; ok {
		return cls, op
	}
	return nil, opNone
}

// held is the multiset of lock classes currently held, with the
// acquisition order preserved for diagnostics.
type held struct {
	count map[*lockClass]int
	order []*lockClass
}

func newHeld() *held { return &held{count: map[*lockClass]int{}} }

func (h *held) clone() *held {
	n := newHeld()
	for k, v := range h.count {
		n.count[k] = v
	}
	n.order = append(n.order, h.order...)
	return n
}

func (h *held) acquire(cls *lockClass) {
	h.count[cls]++
	h.order = append(h.order, cls)
}

func (h *held) release(cls *lockClass) {
	if h.count[cls] > 0 {
		h.count[cls]--
		for i := len(h.order) - 1; i >= 0; i-- {
			if h.order[i] == cls {
				h.order = append(h.order[:i], h.order[i+1:]...)
				break
			}
		}
	}
}

// maxRankHeld returns the highest-ranked held class, nil when empty.
func (h *held) maxRankHeld() *lockClass {
	var best *lockClass
	for cls, n := range h.count {
		if n > 0 && (best == nil || cls.rank > best.rank) {
			best = cls
		}
	}
	return best
}

// checkBody walks one function (or function literal) body.
func (c *checker) checkBody(body *ast.BlockStmt) {
	c.walkStmts(body.List, newHeld())
}

func (c *checker) walkStmts(stmts []ast.Stmt, h *held) {
	for _, s := range stmts {
		c.walkStmt(s, h)
	}
}

func (c *checker) walkStmt(s ast.Stmt, h *held) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		c.walkStmts(s.List, h)
	case *ast.ExprStmt:
		c.walkExpr(s.X, h)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.walkExpr(e, h)
		}
		for _, e := range s.Lhs {
			c.walkExpr(e, h)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.walkExpr(e, h)
		}
	case *ast.DeferStmt:
		// A deferred release keeps the lock held to function end (the
		// state already reflects that: we simply do not release). A
		// deferred acquire or arbitrary call runs at exit; skip it.
		c.walkFuncLits(s.Call, h)
	case *ast.GoStmt:
		// The goroutine body runs concurrently with no inherited locks.
		c.walkFuncLits(s.Call, h)
	case *ast.IfStmt:
		c.walkStmt(s.Init, h)
		c.walkExpr(s.Cond, h)
		c.walkStmt(s.Body, h.clone())
		c.walkStmt(s.Else, h.clone())
	case *ast.SwitchStmt:
		c.walkStmt(s.Init, h)
		if s.Tag != nil {
			c.walkExpr(s.Tag, h)
		}
		for _, cl := range s.Body.List {
			c.walkStmts(cl.(*ast.CaseClause).Body, h.clone())
		}
	case *ast.TypeSwitchStmt:
		c.walkStmt(s.Init, h)
		for _, cl := range s.Body.List {
			c.walkStmts(cl.(*ast.CaseClause).Body, h.clone())
		}
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			branch := h.clone()
			c.walkStmt(cc.Comm, branch)
			c.walkStmts(cc.Body, branch)
		}
	case *ast.ForStmt:
		c.walkStmt(s.Init, h)
		if s.Cond != nil {
			c.walkExpr(s.Cond, h)
		}
		c.walkStmt(s.Body, h)
		c.walkStmt(s.Post, h)
	case *ast.RangeStmt:
		c.walkExpr(s.X, h)
		c.walkStmt(s.Body, h)
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, h)
	case *ast.IncDecStmt:
		c.walkExpr(s.X, h)
	case *ast.SendStmt:
		c.walkExpr(s.Chan, h)
		c.walkExpr(s.Value, h)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c.walkExpr(e, h)
					}
				}
			}
		}
	}
}

// walkFuncLits checks any function literals appearing in a deferred or
// go'd call (the call itself runs outside this body's lock context).
func (c *checker) walkFuncLits(call *ast.CallExpr, _ *held) {
	ast.Inspect(call, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			c.checkBody(fl.Body)
			return false
		}
		return true
	})
}

// walkExpr evaluates an expression's lock events in syntactic order.
func (c *checker) walkExpr(e ast.Expr, h *held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			c.checkBody(fl.Body) // fresh state: literals run elsewhere
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Arguments evaluate before the call: Inspect visits the call
		// node before its children, so handle the call here but let the
		// traversal descend for nested calls (their events are rare and
		// order inversions inside one expression are beyond this
		// checker's precision).
		c.handleCall(call, h)
		return true
	})
}

func (c *checker) handleCall(call *ast.CallExpr, h *held) {
	if cls, op := c.lockOp(call); cls != nil {
		switch op {
		case opAcquire:
			c.checkAcquire(call, cls, h, "")
			h.acquire(cls)
		case opRelease:
			h.release(cls)
		}
		return
	}
	callee := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	if summary, ok := c.acquires[callee]; ok {
		for _, cls := range sortedClasses(summary) {
			c.checkAcquire(call, cls, h, callee.Name())
		}
	}
}

func sortedClasses(set map[*lockClass]bool) []*lockClass {
	out := make([]*lockClass, 0, len(set))
	for cls := range set {
		out = append(out, cls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rank < out[j].rank })
	return out
}

// checkAcquire reports a violation when acquiring cls with h held.
// via names the called function when the acquisition is indirect.
func (c *checker) checkAcquire(call *ast.CallExpr, cls *lockClass, h *held, via string) {
	if h.count[cls] > 0 {
		if via != "" {
			// An indirect re-acquire through a callee is usually a
			// different instance — do not second-guess it.
			return
		}
		c.pass.Reportf(call.Pos(), "re-entrant acquisition of %s (rank %d): already held", cls.name, cls.rank)
		return
	}
	top := h.maxRankHeld()
	if top == nil || cls.rank > top.rank {
		return
	}
	if via != "" {
		c.pass.Reportf(call.Pos(),
			"call to %s may acquire %s (rank %d) while holding %s (rank %d): declared "+
				"lock order requires strictly increasing ranks", via, cls.name, cls.rank, top.name, top.rank)
		return
	}
	c.pass.Reportf(call.Pos(),
		"%s (rank %d) acquired while holding %s (rank %d): declared lock order "+
			"requires strictly increasing ranks", cls.name, cls.rank, top.name, top.rank)
}
