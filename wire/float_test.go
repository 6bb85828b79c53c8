package wire

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// encodeFloats straddle every boundary of encoding/json's float format,
// of the encoder's integer path, which ends below 2^53, and of its
// shortest formatter: 2^60 is whole but past the integer path, 2^−10 a
// power of two, below which the spacing halves. The codec tests encode
// them through every appender, and FuzzAppendFloat starts from them.
var encodeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 3600, 1e-6, 9.999999999999999e-7, -1e-6,
	1e-7, 1.5e-9, 1e21, 9.999999999999999e20, -1e21, 1e22, 123456789e300,
	math.SmallestNonzeroFloat64, math.MaxFloat64, 0.1 + 0.2, 1.0 / 3,
	1<<53 - 1, 1 << 53, 1<<53 + 2, 1<<53 - 0.5, 1e20, 1e15 + 0.5,
	1 << 60, 1.0 / 1024,
}

// floatCheck compares each value's encoding with its oracle: the
// shortest formatter's with strconv's shortest 'f' form inside
// [1e-6, 1e21), and the encoder's fallback with json.Marshal outside.
// It counts per mix the values on each side.
type floatCheck struct {
	t         *testing.T
	got, want []byte
	mixes     map[string]*tally
}

func (c *floatCheck) check(mix string, f float64) {
	c.t.Helper()
	abs := math.Abs(f)
	inside := abs >= 1e-6 && abs < 1e21
	if inside {
		c.got = appendShortest(c.got[:0], f)
		c.want = strconv.AppendFloat(c.want[:0], f, 'f', -1, 64)
	} else {
		e := encoder{b: c.got[:0]}
		e.float(f)
		c.got = e.b
		c.want, _ = json.Marshal(f)
	}
	if string(c.got) != string(c.want) {
		c.t.Fatalf("%s: %v (%#x) encodes as %s, want %s", mix, f, math.Float64bits(f), c.got, c.want)
	}
	if c.mixes[mix] == nil {
		c.mixes[mix] = new(tally)
	}
	c.mixes[mix].add(inside)
}

// TestShortestMatchesStrconv: the shortest formatter writes
// strconv.AppendFloat(dst, f, 'f', -1, 64)'s bytes for random doubles
// at every binary exponent of its range, for the powers of two (where
// the spacing below is irregular) and of ten and their neighbours, for
// short decimals and for solve-hot's budgets; and the doubles one
// binary exponent beyond each end fall back to encoding/json's 'e'
// form.
func TestShortestMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := &floatCheck{t: t, mixes: map[string]*tally{}}
	sign := func(f float64) float64 {
		if rng.Intn(2) == 0 {
			return -f
		}
		return f
	}
	neighbours := func(mix string, f float64) {
		for _, g := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1))} {
			c.check(mix, g)
			c.check(mix, -g)
		}
	}

	// Binary exponents −20..69 hold every double of the range: [2^−20,
	// 2^−19) starts below 1e-6 and [2^69, 2^70) ends above 1e21.
	for e := -21; e <= 70; e++ {
		for i := 0; i < 30_000; i++ {
			mant := rng.Uint64() & (1<<52 - 1)
			c.check("random", sign(math.Float64frombits(uint64(e+1023)<<52|mant)))
		}
		neighbours("pow2", math.Ldexp(1, e))
	}
	for p := -7; p <= 21; p++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(p), 64)
		if err != nil {
			t.Fatal(err)
		}
		neighbours("pow10", f)
	}

	// i·10^p for p = −12..8: the double nearest each, since i and 10^|p|
	// are exact and one IEEE multiply or divide rounds correctly.
	for p := -12; p <= 8; p++ {
		for i := 1; i <= 60_000; i++ {
			if p < 0 {
				c.check("decimals", float64(i)/math.Pow10(-p))
			} else {
				c.check("decimals", float64(i)*math.Pow10(p))
			}
		}
	}
	for i := 0; i < 500_000; i++ {
		c.check("budgets", 11*rng.Float64())
	}

	for mix, n := range c.mixes {
		t.Logf("%s: %d by the formatter, %d by the fallback", mix, n.fast, n.slow)
		if n.fast == 0 || mix != "budgets" && n.slow == 0 {
			t.Errorf("%s: %d by the formatter, %d by the fallback; want both sides of the range", mix, n.fast, n.slow)
		}
	}
}

// ratPow returns base^exp exactly.
func ratPow(base, exp int64) *big.Rat {
	p := new(big.Int).Exp(big.NewInt(base), big.NewInt(max(exp, -exp)), nil)
	if exp < 0 {
		return new(big.Rat).SetFrac(big.NewInt(1), p)
	}
	return new(big.Rat).SetInt(p)
}

// within reports whether lo ≤ x < hi.
func within(lo, x, hi *big.Rat) bool { return lo.Cmp(x) <= 0 && x.Cmp(hi) < 0 }

// TestPow10gTable recomputes pow10g with math/big, checks Schubfach's
// exponent estimates exactly at every binary exponent of the range,
// and checks that those exponents index exactly the table's entries.
func TestPow10gTable(t *testing.T) {
	mask63 := new(big.Int).SetUint64(1<<63 - 1)
	for i, entry := range pow10g {
		k := int64(minK + i)
		r := int64(flog2pow10(int(-k)))
		if !within(ratPow(2, r), ratPow(10, -k), ratPow(2, r+1)) {
			t.Fatalf("k=%d: ⌊−k·log2 10⌋ estimated as %d", k, r)
		}
		g := new(big.Rat).Mul(ratPow(10, -k), ratPow(2, 125-r))
		gi := new(big.Int).Quo(g.Num(), g.Denom())
		gi.Add(gi, big.NewInt(1))
		hi := new(big.Int).Rsh(gi, 63).Uint64()
		lo := new(big.Int).And(gi, mask63).Uint64()
		if entry != [2]uint64{hi, lo} {
			t.Errorf("pow10g[%d] (k=%d) = {%#x, %#x}, want {%#x, %#x}", i, k, entry[0], entry[1], hi, lo)
		}
	}

	// The range's doubles are c·2^q with c in [2^52, 2^53).
	_, elo := math.Frexp(1e-6)
	_, ehi := math.Frexp(math.Nextafter(1e21, 0))
	qlo, qhi := elo-53, ehi-53
	if qlo != -72 || qhi != 17 {
		t.Fatalf("range covers q = %d..%d, want −72..17", qlo, qhi)
	}
	used := map[int]bool{}
	for q := qlo; q <= qhi; q++ {
		for _, irregular := range []bool{false, true} {
			k, v := flog10pow2(q), ratPow(2, int64(q))
			if irregular {
				k, v = flog10ThreeQuartersPow2(q), new(big.Rat).Mul(big.NewRat(3, 4), v)
			}
			if !within(ratPow(10, int64(k)), v, ratPow(10, int64(k)+1)) {
				t.Fatalf("q=%d irregular=%v: k estimated as %d", q, irregular, k)
			}
			if k < minK || k >= minK+len(pow10g) {
				t.Fatalf("q=%d irregular=%v: k=%d is outside the table", q, irregular, k)
			}
			// h lies in 2..5 (for every normal double, in fact), so
			// the shifted bounds stay below 2^61.
			if h := q + flog2pow10(-k) + 2; h < 2 || h > 5 {
				t.Fatalf("q=%d irregular=%v: h=%d, want 2..5", q, irregular, h)
			}
			used[k] = true
		}
	}
	if len(used) != len(pow10g) {
		t.Errorf("the range uses %d of the table's %d entries", len(used), len(pow10g))
	}
}

// FuzzAppendFloat reads a float64 from 64 fuzzed bits: the encoder
// must write json.Marshal's bytes for it, and for NaN or ±Inf set its
// error and write nothing.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range encodeFloats {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		var e encoder
		e.float(x)
		want, err := json.Marshal(x)
		switch {
		case err != nil && (e.err == nil || len(e.b) > 0):
			t.Fatalf("%v: encoder wrote %q (err %v), json.Marshal fails: %v", x, e.b, e.err, err)
		case err == nil && (e.err != nil || string(e.b) != string(want)):
			t.Fatalf("%v (%#x): encoder wrote %q (err %v), json.Marshal %s", x, b, e.b, e.err, want)
		}
	})
}
