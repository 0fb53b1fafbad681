// Package walfirst enforces write-ahead discipline on the commit path:
// inside a function annotated //entitylint:commitpath, every mutation
// of published hub state must be dominated by a write-ahead append.
//
// Appends are calls to functions annotated //entitylint:walappend (or
// same-package functions that transitively call one). Mutations are:
//
//   - method calls with a store/publish verb name (Publish, Commit,
//     Insert, InsertAdmitted, KeepAdmitted, Append, Attach, Store) whose
//     receiver chain passes through a struct field annotated
//     //entitylint:published — a Store on an unannotated field (an
//     eviction clock, a page-in cache) is not a logical mutation;
//   - same-package calls to functions annotated //entitylint:publishes
//     (or transitively reaching one);
//   - assignments (including compound and inc/dec) whose target is a
//     struct field annotated //entitylint:published.
//
// Domination is computed by a conservative must-analysis over the
// syntax: a statement sequence establishes "appended" once an append
// executes unconditionally, or once a conditional's only non-appending
// paths terminate (return/panic). The common guarded idiom
//
//	if h.per != nil { if err := h.per.append...; err != nil { return } }
//
// counts as appended after the guard: when persistence is disabled
// there is nothing to log, and the error path returned.
package walfirst

import (
	"go/ast"
	"go/token"
	"go/types"

	"entityid/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "walfirst",
	Doc: "in //entitylint:commitpath functions, flag mutations of published state " +
		"not dominated by a write-ahead (//entitylint:walappend) append",
	Run: run,
}

// mutatorMethods are method names that publish or store committed
// state when invoked through a published field.
var mutatorMethods = map[string]bool{
	"Publish": true, "Commit": true, "Insert": true, "InsertAdmitted": true, "KeepAdmitted": true, "Append": true, "Attach": true, "Store": true,
}

type checker struct {
	pass      *analysis.Pass
	decls     map[*types.Func]*ast.FuncDecl
	appends   map[*types.Func]bool // transitively performs a WAL append
	publishes map[*types.Func]bool // transitively mutates published state
	published map[*types.Var]bool  // fields annotated published
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:      pass,
		decls:     map[*types.Func]*ast.FuncDecl{},
		appends:   map[*types.Func]bool{},
		publishes: map[*types.Func]bool{},
		published: map[*types.Var]bool{},
	}
	c.collect()
	c.propagate()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := analysis.FindDirective("commitpath", fd.Doc); !ok {
				continue
			}
			st := state{}
			c.checkStmts(fd.Body.List, &st)
		}
	}
	return nil, nil
}

// collect indexes declarations, directive-annotated functions and
// fields.
func (c *checker) collect() {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.decls[fn] = fd
			if _, ok := analysis.FindDirective("walappend", fd.Doc); ok {
				c.appends[fn] = true
			}
			if _, ok := analysis.FindDirective("publishes", fd.Doc); ok {
				c.publishes[fn] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if _, ok := analysis.FindDirective("published", field.Doc, field.Comment); !ok {
					continue
				}
				for _, name := range field.Names {
					if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.published[v] = true
					}
				}
			}
			return true
		})
	}
}

// propagate closes appends/publishes over the same-package call graph.
func (c *checker) propagate() {
	callees := map[*types.Func][]*types.Func{}
	for fn, fd := range c.decls {
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := analysis.CalleeFunc(c.pass.TypesInfo, call); callee != nil {
				if _, local := c.decls[callee]; local {
					callees[fn] = append(callees[fn], callee)
				}
			}
			// Direct published-state mutations inside helpers make the
			// helper itself a publisher.
			return true
		})
		if !c.publishes[fn] && c.directlyPublishes(fd) {
			c.publishes[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, cs := range callees {
			for _, callee := range cs {
				if c.appends[callee] && !c.appends[fn] {
					c.appends[fn] = true
					changed = true
				}
				if c.publishes[callee] && !c.publishes[fn] {
					c.publishes[fn] = true
					changed = true
				}
			}
		}
	}
}

// directlyPublishes reports whether a function body contains a direct
// mutation site (used to seed the publishes fixpoint).
func (c *checker) directlyPublishes(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if _, ok := c.publishedMutator(n); ok {
				found = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if c.publishedTarget(lhs) != nil {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if c.publishedTarget(n.X) != nil {
				found = true
			}
		}
		return !found
	})
	return found
}

// publishedMutator reports whether a call is a mutator-verb method
// invoked through a published field, returning that field.
func (c *checker) publishedMutator(call *ast.CallExpr) (*types.Var, bool) {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil || !mutatorMethods[fn.Name()] {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	return c.publishedInChain(sel.X)
}

// publishedInChain walks a receiver chain (h.clusters, s.view,
// h.backend.Clusters(), src.pairs[i].res ...) looking for a published
// field.
func (c *checker) publishedInChain(e ast.Expr) (*types.Var, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if v, ok := c.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && c.published[v] {
				return v, true
			}
			e = x.X
		case *ast.CallExpr:
			if f, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				e = f.X
				continue
			}
			return nil, false
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// publishedTarget returns the annotated field a mutation target writes
// through, or nil. Handles h.f, h.f[k], h.a.f chains.
func (c *checker) publishedTarget(e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := c.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && c.published[v] {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// state is the must-analysis fact set threaded through a statement
// sequence.
type state struct {
	appended   bool // a WAL append has definitely executed
	terminated bool // control definitely left the function
}

// checkStmts walks a statement list, reporting mutations that precede
// the append and updating st.
func (c *checker) checkStmts(stmts []ast.Stmt, st *state) {
	for _, s := range stmts {
		if st.terminated {
			return
		}
		c.checkStmt(s, st)
	}
}

func (c *checker) checkStmt(s ast.Stmt, st *state) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		c.checkStmts(s.List, st)
	case *ast.ExprStmt:
		c.checkExpr(s.X, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.checkExpr(e, st)
		}
		for _, lhs := range s.Lhs {
			if v := c.publishedTarget(lhs); v != nil && !st.appended {
				c.report(lhs.Pos(), "assignment to published field "+v.Name())
			}
		}
	case *ast.IncDecStmt:
		if v := c.publishedTarget(s.X); v != nil && !st.appended {
			c.report(s.X.Pos(), "update of published field "+v.Name())
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.checkExpr(e, st)
		}
		st.terminated = true
	case *ast.BranchStmt:
		// break/continue/goto end the sequence conservatively: facts
		// established after them on this path do not reach fall-through.
		st.terminated = true
	case *ast.IfStmt:
		c.checkStmt(s.Init, st)
		c.checkExpr(s.Cond, st)
		then := *st
		c.checkStmt(s.Body, &then)
		els := *st
		if s.Else != nil {
			c.checkStmt(s.Else, &els)
		}
		merge(st, then, els, s.Else != nil, c.isNilGuard(s))
	case *ast.SwitchStmt:
		c.checkStmt(s.Init, st)
		if s.Tag != nil {
			c.checkExpr(s.Tag, st)
		}
		c.checkCases(s.Body, st)
	case *ast.TypeSwitchStmt:
		c.checkStmt(s.Init, st)
		c.checkCases(s.Body, st)
	case *ast.SelectStmt:
		c.checkCases(s.Body, st)
	case *ast.ForStmt:
		c.checkStmt(s.Init, st)
		if s.Cond != nil {
			c.checkExpr(s.Cond, st)
		}
		body := *st
		c.checkStmt(s.Body, &body)
		c.checkStmt(s.Post, &body)
		// Zero iterations are possible: loop effects are not guaranteed.
	case *ast.RangeStmt:
		c.checkExpr(s.X, st)
		body := *st
		c.checkStmt(s.Body, &body)
	case *ast.LabeledStmt:
		c.checkStmt(s.Stmt, st)
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred/concurrent work is outside the dominance order.
	case *ast.SendStmt:
		c.checkExpr(s.Chan, st)
		c.checkExpr(s.Value, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c.checkExpr(e, st)
					}
				}
			}
		}
	}
}

// checkCases evaluates each clause against the entry state; the merged
// fall-through keeps entry facts plus append-everywhere when the
// construct has a default and every live clause appended.
func (c *checker) checkCases(body *ast.BlockStmt, st *state) {
	entry := *st
	allAppend, allTerm, hasDefault := true, true, false
	for _, cl := range body.List {
		branch := entry
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				c.checkExpr(e, &branch)
			}
			c.checkStmts(cl.Body, &branch)
		case *ast.CommClause:
			hasDefault = hasDefault || cl.Comm == nil
			c.checkStmt(cl.Comm, &branch)
			c.checkStmts(cl.Body, &branch)
		}
		if !branch.terminated {
			allTerm = false
			if !branch.appended {
				allAppend = false
			}
		}
	}
	if hasDefault && allTerm {
		st.terminated = true
	}
	if hasDefault && allAppend {
		st.appended = true
	}
}

// merge folds an if/else's branch facts into the fall-through state.
func merge(st *state, then, els state, hasElse, nilGuard bool) {
	if hasElse {
		if then.terminated && els.terminated {
			st.terminated = true
			return
		}
		appended := true
		if !then.terminated && !then.appended {
			appended = false
		}
		if !els.terminated && !els.appended {
			appended = false
		}
		if appended {
			st.appended = true
		}
		return
	}
	// No else: fall-through may skip the branch entirely, so its facts
	// only hold when the branch both ran and appended — which we can
	// only assume for the recognized nil-guard idiom, where skipping
	// the branch means persistence is off and nothing needs logging. A
	// branch that merely returns (`if err != nil { return err }` is a nil
	// comparison too) establishes nothing.
	if nilGuard && then.appended {
		st.appended = true
	}
	if then.terminated && els.appended {
		st.appended = true
	}
}

// isNilGuard recognizes `if X != nil { ... }` — the standard guard
// around optional persistence.
func (c *checker) isNilGuard(s *ast.IfStmt) bool {
	be, ok := ast.Unparen(s.Cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	return isNilIdent(be.X) || isNilIdent(be.Y)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// checkExpr scans an expression for mutation and append events.
func (c *checker) checkExpr(e ast.Expr, st *state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		c.handleCall(call, st)
		return true
	})
}

func (c *checker) handleCall(call *ast.CallExpr, st *state) {
	fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if _, local := c.decls[fn]; local || fn.Pkg() == c.pass.Pkg {
		if c.appends[fn] {
			st.appended = true
			return
		}
		if c.publishes[fn] && !st.appended {
			c.report(call.Pos(), "call to "+fn.Name()+", which mutates published state")
		}
		return
	}
	if v, ok := c.publishedMutator(call); ok && !st.appended {
		c.report(call.Pos(), "call to "+fn.Name()+" through published field "+v.Name())
	}
}

func (c *checker) report(pos token.Pos, what string) {
	c.pass.Reportf(pos,
		"%s before the write-ahead append: commit-path mutations must be "+
			"dominated by a walappend call", what)
}
