// Package floatcmp forbids raw == and != on floating-point operands.
//
// The solver, the plan envelope and the sim harness all trade in
// float64 energies; an accidental equality test on a computed value is
// the classic silent-wrong-answer bug. The repo's discipline is that
// every float comparison names its intent through the helpers in
// repro/internal/fpx: fpx.Eq / fpx.Zero for deliberately exact
// comparisons (breakpoint hits, zero-value defaults, sort tie-breaks),
// and an explicit math.Abs(a-b) <= tol for tolerance comparisons. The
// fpx package itself is the allowlisted helper set; everywhere else a
// raw float ==/!= is a diagnostic.
package floatcmp

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// allowedPkg is the one package whose raw float comparisons are the
// point: the helpers everything else must call.
const allowedPkg = "repro/internal/fpx"

// Analyzer flags ==/!= with a floating-point operand outside fpx.
var Analyzer = &analysis.Analyzer{
	Name: "floatcmp",
	Doc: "forbid raw == / != on float64 or float32 operands; spell the intent " +
		"with repro/internal/fpx (Eq, Zero) or a tolerance, math.Abs(a-b) <= tol, instead",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Path() == allowedPkg {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if isFloat(pass.TypesInfo, bin.X) || isFloat(pass.TypesInfo, bin.Y) {
				pass.Reportf(bin.OpPos,
					"raw float comparison (%s): use fpx.Eq/fpx.Zero for intentional exact compares or math.Abs(a-b) <= tol for tolerances",
					bin.Op)
			}
			return true
		})
	}
	return nil
}

// isFloat reports whether the expression's type is (or has underlying)
// float32, float64, or an untyped float constant.
func isFloat(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return basic.Info()&types.IsFloat != 0
}
