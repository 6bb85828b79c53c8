package core

import "math"

// FNV-1a 64-bit, written out locally so the fingerprint does not depend
// on hash/fnv allocating a hasher per call on the fleet hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) u8(v byte) {
	*h = (*h ^ fnv64(v)) * fnvPrime64
}

func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.u8(byte(v >> (8 * i)))
	}
}

func (h *fnv64) f64(v float64) { h.u64(math.Float64bits(v)) }

// Fingerprint returns a canonical 64-bit hash of every field the solvers
// read: Period, POff, Alpha and each design point's (Accuracy, Power), in
// order. Design-point names are deliberately excluded — they never reach
// the LP, so two configurations differing only in labels produce
// bit-identical allocations and may share one compiled plan. The
// encoding is length-prefixed, so no two distinct configurations collide
// by concatenation; distinct float bit patterns (including -0 versus +0)
// hash distinctly.
//
// The root package's plan backend memoizes compiled plans by this
// fingerprint, and Controller.SetPlan uses it to refuse a plan compiled
// for another configuration. A 64-bit hash makes a cross-configuration
// collision astronomically unlikely (~2⁻⁶⁴ per pair), not impossible;
// callers needing hard isolation between configurations should compile
// their own plans.
func (c Config) Fingerprint() uint64 {
	h := fnv64(fnvOffset64)
	h.f64(c.Period)
	h.f64(c.POff)
	h.f64(c.Alpha)
	h.u64(uint64(len(c.DPs)))
	for _, d := range c.DPs {
		h.f64(d.Accuracy)
		h.f64(d.Power)
	}
	return uint64(h)
}
