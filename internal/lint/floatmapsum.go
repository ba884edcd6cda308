package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatMapSum flags floating-point accumulation whose result depends on
// Go's randomized map iteration order. Float addition is not
// associative, so a total summed inside a `for … range` over a map can
// differ in its last bits from one run to the next; in the control plane
// that difference reaches LP inputs, plans, exports and wire deltas,
// which must be a deterministic function of their inputs.
//
// Flagged inside floatMapSumPkgs (non-test files only), within the body
// of a range over a map: `+=`, `-=`, and `v = v + …` / `v = v - …` whose
// target is float-typed and is a variable, field or map/slice element
// rooted in a variable declared outside that loop.
//
// Not flagged: accumulators declared inside the loop body (a per-key
// total starts afresh every iteration), and elements indexed by the
// loop's own key, which each receive exactly one update per loop.
// Iterate in a canonical order (sorted keys, plan order) instead, or
// justify the site with //vet:ignore floatmapsum.
var FloatMapSum = &Analyzer{
	Name: "floatmapsum",
	Doc:  "flag float accumulation inside a range over a map in the control-plane packages",
	Run:  runFloatMapSum,
}

// floatMapSumPkgs are the import-path suffixes the analyzer guards.
var floatMapSumPkgs = []string{
	"/internal/controller",
	"/internal/lp",
	"/internal/verify",
}

func runFloatMapSum(pass *Pass) error {
	guarded := false
	for _, suffix := range floatMapSumPkgs {
		if strings.HasSuffix(pass.Pkg.Path, suffix) {
			guarded = true
			break
		}
	}
	if !guarded {
		return nil
	}
	info := pass.Pkg.Info
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := underlying(info.TypeOf(rs.X)).(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rs.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || reported[as.Pos()] {
					return true
				}
				lhs := as.Lhs[0]
				switch as.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN:
				case token.ASSIGN:
					if !sumsInto(lhs, as.Rhs[0]) {
						return true
					}
				default:
					return true
				}
				if !isFloat(info.TypeOf(lhs)) || !outliveLoop(info, rs, lhs) {
					return true
				}
				reported[as.Pos()] = true
				pass.Reportf(as.Pos(),
					"float accumulation into %s inside a range over a map depends on iteration order; sum in a canonical order",
					types.ExprString(lhs))
				return true
			})
			return true
		})
	}
	return nil
}

// underlying is t's underlying type, nil-safe.
func underlying(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

// isFloat reports whether t is a floating-point type.
func isFloat(t types.Type) bool {
	b, ok := underlying(t).(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sumsInto reports whether rhs is a +/- expression with lhs as one of
// its terms, as in `v = v + x` or `v = x - y + v`.
func sumsInto(lhs, rhs ast.Expr) bool {
	want := types.ExprString(lhs)
	var walk func(ast.Expr) bool
	walk = func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if b, ok := e.(*ast.BinaryExpr); ok && (b.Op == token.ADD || b.Op == token.SUB) {
			return walk(b.X) || walk(b.Y)
		}
		return types.ExprString(e) == want
	}
	b, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	return ok && (b.Op == token.ADD || b.Op == token.SUB) && walk(b)
}

// outliveLoop reports whether the accumulation target survives across
// iterations of rs: its root variable is declared outside the range
// statement, and it is not an element indexed by the loop's own key.
func outliveLoop(info *types.Info, rs *ast.RangeStmt, lhs ast.Expr) bool {
	if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if key, ok := rs.Key.(*ast.Ident); ok && key.Name != "_" {
			if id, ok := ast.Unparen(ix.Index).(*ast.Ident); ok && info.ObjectOf(id) == info.ObjectOf(key) {
				return false
			}
		}
	}
	root := rootIdent(lhs)
	if root == nil {
		return false
	}
	obj := info.ObjectOf(root)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() >= rs.End()
}

// rootIdent strips selectors, index expressions, derefs and parens from
// e down to the variable it is rooted in; nil when e is rooted in
// anything else (a call result, a literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
