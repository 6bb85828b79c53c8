// Package fpx is the repo's allowlisted floating-point comparison set:
// the one place raw float equality is legal (the floatcmp analyzer
// skips this package and flags ==/!= on floats everywhere else).
//
// The point is not that exact comparison is always wrong — breakpoint
// hits after sort.SearchFloat64s, zero-value default detection and sort
// tie-breaks all want it — but that it must be *named*. A call to
// fpx.Eq or fpx.Zero tells the reader the exactness is deliberate; a
// bare == cannot be told apart from the classic accumulated-roundoff
// bug. Tolerance comparisons spell their tolerance with Near or
// InDelta.
//
// Every function is a single comparison or arithmetic expression, so
// the compiler inlines them to exactly the code the raw operator would
// have produced: using fpx costs nothing on hot paths.
package fpx

import "math"

// Eq reports whether a and b are exactly equal as float64 values.
// Use it only where exactness is structural — e.g. testing a budget
// against an envelope breakpoint found by binary search, or comparing
// values copied untouched from a common source. NaN equals nothing,
// including itself, matching ==.
func Eq(a, b float64) bool { return a == b }

// Zero reports whether x is exactly zero (either sign). The idiomatic
// use is zero-value detection: "was this config field ever set". Note
// Zero(-0) is true, like x == 0.
func Zero(x float64) bool { return x == 0 }

// Near reports whether a and b differ by at most tol in absolute
// value. NaN inputs are never near anything; infinities of the same
// sign are near each other for any non-negative tol.
func Near(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

// InDelta is Near under the name test suites conventionally use.
func InDelta(a, b, delta float64) bool { return Near(a, b, delta) }
