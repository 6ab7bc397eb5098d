package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// gf256Package is the arithmetic substrate package. Any package that
// imports it directly is handling GF(2^8) field elements, and byte
// values there must go through the field helpers. The package itself is
// exempt — it implements those helpers.
var gf256Package = "mobweb/internal/gf256"

// GFArith flags integer +, -, *, /, % (and their compound-assignment
// forms) applied to byte-typed operands in packages that import gf256.
//
// Cooked packets are GF(2^8)-linear combinations of raw packets (Rabin
// dispersal, §4.1): addition is XOR and multiplication runs through
// log/exp tables. Integer arithmetic on a field element produces a
// value that decodes to garbage — and the CRC on each packet means the
// corruption is attributed to the channel, not the encoder, making this
// the nastiest kind of silent bug. gf256.Add/Mul/Div are the only legal
// operations on field elements.
//
// Index and length arithmetic is int-typed in Go, so it never trips
// this check — the "allowlist for index arithmetic" falls out of the
// type system. For the rare legitimate byte arithmetic near field code
// (wire-format headers, say), suppress the line with //lint:allow
// gfarith.
var GFArith = &Analyzer{
	Name: "gfarith",
	Doc: "flag integer +,-,*,/,% on byte operands and byte << (unreduced doubling) in packages importing gf256; " +
		"field elements must use gf256.Add/Mul/Div (XOR/log-exp tables), not machine arithmetic",
	Run: runGFArith,
}

var gfForbiddenOps = map[token.Token]string{
	token.ADD: "+", token.SUB: "-", token.MUL: "*", token.QUO: "/", token.REM: "%",
	token.ADD_ASSIGN: "+=", token.SUB_ASSIGN: "-=", token.MUL_ASSIGN: "*=",
	token.QUO_ASSIGN: "/=", token.REM_ASSIGN: "%=",
}

// Left shifts get their own diagnostic: byte<<k is "unreduced doubling"
// — multiplication by 2^k without the modular reduction by the field
// polynomial, so it overflows silently for any element with high bits
// set. Only the shifted operand's type matters; the shift count is
// typically an untyped constant. Wider integer shifts (the uint64 SWAR
// lanes in the nibble kernel, table-index math) are untouched.
var gfShiftOps = map[token.Token]string{
	token.SHL: "<<", token.SHL_ASSIGN: "<<=",
}

func runGFArith(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		importsGF := slices.ContainsFunc(pkg.Types.Imports(), func(imp *types.Package) bool { return imp.Path() == gf256Package })
		if importsGF && pkg.PkgPath != gf256Package {
			checkGFArith(pass, pkg)
		}
	}
	return nil
}

func checkGFArith(pass *Pass, pkg *Package) {
	isByteExpr := func(e ast.Expr) bool { return isByte(pkg.Info.Types[e].Type) }
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				if op, forbidden := gfForbiddenOps[e.Op]; forbidden && isByteExpr(e.X) && isByteExpr(e.Y) {
					pass.Reportf(e.OpPos, "integer %q on byte operands in a GF(2^8) package; use gf256.%s (field arithmetic, not machine arithmetic)",
						op, gfHelperFor(e.Op))
				}
				if op, shift := gfShiftOps[e.Op]; shift && isByteExpr(e.X) {
					pass.Reportf(e.OpPos, "byte %q in a GF(2^8) package is unreduced doubling; use gf256.Mul with a power of Exp (reduction modulo the field polynomial)",
						op)
				}
			case *ast.AssignStmt:
				if op, forbidden := gfForbiddenOps[e.Tok]; forbidden && len(e.Lhs) == 1 && isByteExpr(e.Lhs[0]) {
					pass.Reportf(e.TokPos, "integer %q on byte operands in a GF(2^8) package; use gf256.%s (field arithmetic, not machine arithmetic)",
						op, gfHelperFor(e.Tok))
				}
				if op, shift := gfShiftOps[e.Tok]; shift && len(e.Lhs) == 1 && isByteExpr(e.Lhs[0]) {
					pass.Reportf(e.TokPos, "byte %q in a GF(2^8) package is unreduced doubling; use gf256.Mul with a power of Exp (reduction modulo the field polynomial)",
						op)
				}
			}
			return true
		})
	}
}

func gfHelperFor(op token.Token) string {
	switch op {
	case token.ADD, token.ADD_ASSIGN:
		return "Add"
	case token.SUB, token.SUB_ASSIGN:
		return "Sub"
	case token.MUL, token.MUL_ASSIGN:
		return "Mul"
	case token.QUO, token.QUO_ASSIGN:
		return "Div"
	default:
		return "Add/Mul/Div"
	}
}
