package core

import "math"

// fpSeed starts every fingerprint; any constant would do.
const fpSeed = 14695981039346656037

// fpHash absorbs one 64-bit word per round: xor the word in, then mix
// the state with xorshift, multiply, xorshift (one round of degski's
// 64-bit integer hash). The xor is a bijection on the word for a fixed
// state, and each mix step is a bijection on the state, so inputs that
// differ in exactly one word always hash differently. The first
// xorshift carries the sign bit down before the multiply, so negating
// two adjacent fields does not cancel out, as it does in a plain
// xor-then-multiply round such as word-wise FNV-1a.
type fpHash uint64

func (h *fpHash) u64(v uint64) {
	x := uint64(*h) ^ v
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93 // odd, so the multiply is a bijection
	x ^= x >> 32
	*h = fpHash(x)
}

func (h *fpHash) f64(v float64) { h.u64(math.Float64bits(v)) }

// Fingerprint returns a canonical 64-bit hash of every field the solvers
// read: Period, POff, Alpha and each design point's (Accuracy, Power), in
// order, one word per field. Design-point names are deliberately
// excluded — they never reach the LP, so two configurations differing
// only in labels produce bit-identical allocations and may share one
// compiled plan. The encoding is length-prefixed, so no two distinct
// configurations collide by concatenation; distinct float bit patterns
// (including -0 versus +0) hash distinctly, and a change to any single
// field always changes the hash.
//
// PlanFor memoizes compiled plans by this fingerprint. A 64-bit hash
// makes a cross-configuration collision astronomically unlikely (~2⁻⁶⁴
// per pair), not impossible. It is an in-process key only: nothing
// persists it, so its value may change between builds.
func (c Config) Fingerprint() uint64 {
	h := fpHash(fpSeed)
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
