package sql

import "dqo/internal/expr"

// Fingerprint returns the normalized shape of a statement for plan-template
// caching: the String() form with every literal — WHERE/HAVING constants and
// the LIMIT count — stripped to a parameter slot. Two statements with the
// same fingerprint bind to structurally identical logical trees whose only
// differences are literal values, which is exactly what core.Rebind can
// splice into a cached physical plan: the optimiser's selectivity estimates
// (1/distinct for equality, 1/3 otherwise) and granule choices do not depend
// on the literal values, only on the predicate shape.
func Fingerprint(s *SelectStmt) string { return s.render(true) }

// renderExpr renders an expression; with shape set, literals render as "?".
func renderExpr(e expr.Expr, shape bool) string {
	if !shape {
		return e.String()
	}
	switch e := e.(type) {
	case expr.Bin:
		return "(" + renderExpr(e.L, true) + " " + e.Op.String() + " " + renderExpr(e.R, true) + ")"
	case expr.IntLit, expr.FloatLit, expr.StrLit, expr.Param:
		return "?"
	default:
		return e.String()
	}
}
