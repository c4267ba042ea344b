package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerHandle proves lifetime discipline for pooled event handles.
// A sim.Event is a generation-checked handle into a recycled slot pool:
// once it fires, is canceled, or its slot is recycled, the handle is
// inert — using it is at best a silent no-op and at worst hides a
// logic bug the generation check papered over. The analyzer enforces
// three intraprocedural rules (conservatively, within straight-line
// statement sequences, so control-flow merges never produce false
// positives):
//
//  1. use-after-Cancel: once x.Cancel() runs, reading x (other than
//     Live(), or the idempotent Cancel itself) is dead code wearing a
//     seatbelt — the handle can never fire or report a time again.
//  2. overwrite-while-live: assigning a fresh Schedule/At result over a
//     variable that already holds one, with no intervening Cancel or
//     Live check, leaks the first event into the shard heap with no
//     remaining cancel path (the ARQ-timer leak class, one level up
//     from eventdrop).
//  3. stored-beyond-round: a handle stored into a package-level
//     variable, or into a struct field that no code in the package ever
//     re-checks (no Cancel or Live anywhere on that field), outlives
//     the firing round on faith alone. Fields with a visible
//     Cancel/Live discipline (e.g. the link layer's retransmission
//     timer maps) are exempt.
var AnalyzerHandle = &Analyzer{
	Name: "handle",
	Doc:  "pooled sim.Event handles: no use-after-Cancel, no double-Schedule, no unchecked stores across rounds",
	Run:  runHandle,
}

// simEventPkg is the package declaring the pooled handle type.
const simEventPkg = "telegraphos/internal/sim"

// isSimEvent reports whether t is sim.Event.
func isSimEvent(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Event" && obj.Pkg() != nil && obj.Pkg().Path() == simEventPkg
}

// handleSources are the calls that mint live handles (same set the
// eventdrop analyzer watches).
var handleSources = map[string]bool{
	"telegraphos/internal/sim.Engine.Schedule": true,
	"telegraphos/internal/sim.Engine.At":       true,
}

func runHandle(pass *Pass) {
	if pass.Pkg.ImportPath == simEventPkg {
		return // the handle implementation manipulates its own slots by design
	}
	guarded := guardedFields(pass)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				scanHandleBlock(pass, n.List)
			case *ast.CaseClause:
				scanHandleBlock(pass, n.Body)
			case *ast.CommClause:
				scanHandleBlock(pass, n.Body)
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					}
					checkHandleStore(pass, guarded, lhs, rhs)
				}
			}
			return true
		})
	}
}

// guardedFields collects the names of struct fields on which some code
// in the package calls Cancel or Live through a selector chain — the
// visible generation re-check discipline that exempts a field from
// rule 3.
func guardedFields(pass *Pass) map[string]bool {
	guarded := make(map[string]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Cancel" && sel.Sel.Name != "Live") {
				return true
			}
			if !isSimEvent(pass.TypeOf(sel.X)) {
				return true
			}
			addChainFields(guarded, sel.X)
			return true
		})
	}
	return guarded
}

// addChainFields records every selector field name along expr's chain.
func addChainFields(set map[string]bool, expr ast.Expr) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			set[e.Sel.Name] = true
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return
		}
	}
}

// isHandleMint reports whether e is a Schedule/At call producing a
// fresh live handle.
func isHandleMint(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	return handleSources[methodKey(calleeOf(pass.Pkg.Info, call))]
}

// checkHandleStore applies rule 3 to one assignment target.
func checkHandleStore(pass *Pass, guarded map[string]bool, lhs, rhs ast.Expr) {
	if rhs == nil {
		return
	}
	if !isSimEvent(pass.TypeOf(rhs)) && !isHandleMint(pass, rhs) {
		return
	}
	// Unwrap index chains: storing into m[k] is storing into the field
	// holding m.
	target := ast.Unparen(lhs)
	for {
		idx, ok := target.(*ast.IndexExpr)
		if !ok {
			break
		}
		target = ast.Unparen(idx.X)
	}
	switch t := target.(type) {
	case *ast.Ident:
		if v, ok := pass.Pkg.Info.Uses[t].(*types.Var); ok && isPackageLevel(pass, v) {
			pass.Reportf(lhs.Pos(),
				"event handle stored into package-level variable %s: it outlives the firing round with no owner to Cancel it or re-check Live() — keep handles in the owning struct with a visible Cancel/Live discipline, or annotate //tgvet:allow handle(reason)",
				t.Name)
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Pkg.Info.Selections[t]; !ok || sel.Kind() != types.FieldVal {
			return // package-qualified var or method; only field stores are rule 3
		}
		if guarded[t.Sel.Name] {
			return // the package visibly Cancels/Lives this field: discipline exists
		}
		pass.Reportf(lhs.Pos(),
			"event handle stored into field %s outlives the firing round, and nothing in this package ever Cancels or Live-checks %s: after the slot recycles, the stored handle is silently inert — add the generation re-check (Cancel/Live on the field), or annotate //tgvet:allow handle(reason)",
			exprText(t), t.Sel.Name)
	}
}

// isPackageLevel reports whether v is declared at package scope.
func isPackageLevel(pass *Pass, v *types.Var) bool {
	if pass.Pkg.Types == nil {
		return false
	}
	return v.Parent() == pass.Pkg.Types.Scope()
}

// handleState is the straight-line dataflow for rules 1 and 2, tracking
// identifier-named handles within one statement sequence.
type handleState struct {
	canceled map[string]token.Pos // name -> Cancel site
	armed    map[string]token.Pos // name -> Schedule/At assignment site
}

// scanHandleBlock runs rules 1 and 2 over one statement sequence.
// Compound statements (ifs, loops, nested blocks) are analyzed by their
// own BlockStmt visits; here they only purge the facts of every handle
// they mention, so a branch can never manufacture a false positive.
func scanHandleBlock(pass *Pass, stmts []ast.Stmt) {
	st := handleState{
		canceled: make(map[string]token.Pos),
		armed:    make(map[string]token.Pos),
	}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt, *ast.AssignStmt, *ast.ReturnStmt, *ast.DeclStmt:
			checkHandleUses(pass, stmt, &st)
			updateHandleState(pass, stmt, &st)
			_ = s
		default:
			purgeMentioned(pass, stmt, &st)
		}
	}
}

// checkHandleUses flags rule-1 violations in one simple statement.
func checkHandleUses(pass *Pass, stmt ast.Stmt, st *handleState) {
	if len(st.canceled) == 0 {
		return
	}
	// Identify idents that are exempt uses: assignment targets
	// (reassignment revives the name) and Live/Cancel receivers.
	exempt := make(map[*ast.Ident]bool)
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					exempt[id] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Live" || sel.Sel.Name == "Cancel" {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						exempt[id] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(stmt, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || exempt[id] {
			return true
		}
		if _, dead := st.canceled[id.Name]; !dead {
			return true
		}
		if !isSimEvent(pass.TypeOf(id)) {
			return true
		}
		pass.Reportf(id.Pos(),
			"use of event handle %s after Cancel: the generation bump made it inert — it can never fire and Live() is false; Schedule a fresh event and keep the new handle, or annotate //tgvet:allow handle(reason)",
			id.Name)
		delete(st.canceled, id.Name) // one report per kill site is enough
		return true
	})
}

// updateHandleState folds one simple statement into the dataflow.
func updateHandleState(pass *Pass, stmt ast.Stmt, st *handleState) {
	// Cancels and Live checks anywhere in the statement.
	ast.Inspect(stmt, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || !isSimEvent(pass.TypeOf(id)) {
			return true
		}
		switch sel.Sel.Name {
		case "Cancel":
			st.canceled[id.Name] = call.Pos()
			delete(st.armed, id.Name)
		case "Live":
			delete(st.armed, id.Name) // the code checked: give it credit
		}
		return true
	})
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok {
		return
	}
	for i, lhs := range assign.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		var rhs ast.Expr
		if len(assign.Rhs) == len(assign.Lhs) {
			rhs = assign.Rhs[i]
		} else if len(assign.Rhs) == 1 && len(assign.Lhs) == 1 {
			rhs = assign.Rhs[0]
		}
		minted := rhs != nil && isHandleMint(pass, rhs)
		if minted {
			if prev, live := st.armed[id.Name]; live {
				prevPos := pass.Pkg.Fset.Position(prev)
				pass.Reportf(lhs.Pos(),
					"handle %s overwritten while possibly live (previous Schedule/At at line %d): the first event can no longer be cancelled and sits in the shard heap until it fires — Cancel the old handle or check Live() before rescheduling, or annotate //tgvet:allow handle(reason)",
					id.Name, prevPos.Line)
			}
			st.armed[id.Name] = lhs.Pos()
			delete(st.canceled, id.Name)
		} else {
			// Any other assignment retires our knowledge of the name.
			delete(st.armed, id.Name)
			delete(st.canceled, id.Name)
		}
	}
}

// purgeMentioned forgets every handle a compound statement touches.
func purgeMentioned(pass *Pass, stmt ast.Stmt, st *handleState) {
	if len(st.canceled) == 0 && len(st.armed) == 0 {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			delete(st.canceled, id.Name)
			delete(st.armed, id.Name)
		}
		return true
	})
}
