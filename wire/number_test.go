package wire

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// convert runs lit through the scanner's float path and checks it
// against strconv.ParseFloat bit for bit: the same value, or the same
// refusal for one out of range. It reports whether the scanner's own
// conversion took lit rather than handing it to strconv.
func convert(t *testing.T, lit []byte) (fast bool) {
	t.Helper()
	want, werr := strconv.ParseFloat(string(lit), 64)
	d := decoder{data: lit}
	var got float64
	ok := d.float(&got)
	if !ok || d.pos != len(lit) {
		if werr == nil {
			t.Fatalf("%s: scanner declined, strconv.ParseFloat reads %v", lit, want)
		}
		return false
	}
	if werr != nil {
		t.Fatalf("%s: scanner reads %v, strconv.ParseFloat fails: %v", lit, got, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: scanner reads %v (%#x), strconv.ParseFloat %v (%#x)",
			lit, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	n, _ := (&decoder{data: lit}).number()
	_, fast = n.float()
	return fast
}

// tally counts, per mix, the literals the scanner converted itself and
// those it handed to strconv.
type tally struct{ fast, slow int }

func (c *tally) add(fast bool) {
	if fast {
		c.fast++
	} else {
		c.slow++
	}
}

// TestFloatMatchesParseFloat: every literal the scanner converts
// itself reads bit-identical to strconv.ParseFloat, across shortest
// forms of random doubles, random digit strings on both sides of the
// 19-digit and 10^±19 limits, exact halfway cases and the edges.
func TestFloatMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	mixes := map[string]*tally{}
	count := func(mix string, lit []byte) {
		if mixes[mix] == nil {
			mixes[mix] = new(tally)
		}
		mixes[mix].add(convert(t, lit))
	}

	// Shortest 'f' and 'g' forms of random doubles at binary exponents
	// −70..70: what encoding/json and strconv write.
	for i := 0; i < 300_000; i++ {
		mant := 1<<52 | rng.Uint64()&(1<<52-1)
		f := math.Ldexp(float64(mant), rng.Intn(141)-70-52)
		if rng.Intn(2) == 0 {
			f = -f
		}
		count("shortest", strconv.AppendFloat(buf[:0], f, 'f', -1, 64))
		count("shortest", strconv.AppendFloat(buf[:0], f, 'g', -1, 64))
	}

	// Random digit strings of 1–20 significant digits, as an integer,
	// with a point inside or in front of them behind leading zeros,
	// and with a decimal exponent −25..25.
	for i := 0; i < 400_000; i++ {
		nd := 1 + rng.Intn(20)
		digits := make([]byte, nd)
		digits[0] = byte('1' + rng.Intn(9))
		for k := 1; k < nd; k++ {
			digits[k] = byte('0' + rng.Intn(10))
		}
		b := buf[:0]
		if rng.Intn(4) == 0 {
			b = append(b, '-')
		}
		switch rng.Intn(3) {
		case 0:
			b = append(b, digits...)
		case 1:
			p := 1 + rng.Intn(nd)
			b = append(b, digits[:p]...)
			if p < nd {
				b = append(b, '.')
				b = append(b, digits[p:]...)
			}
		default:
			b = append(b, "0."...)
			for z := rng.Intn(8); z > 0; z-- {
				b = append(b, '0')
			}
			b = append(b, digits...)
		}
		if rng.Intn(4) > 0 {
			b = append(b, "eE"[rng.Intn(2)])
			if e := rng.Intn(51) - 25; e >= 0 && rng.Intn(2) == 0 {
				b = append(append(b, '+'), strconv.Itoa(e)...)
			} else {
				b = strconv.AppendInt(b, int64(e), 10)
			}
		}
		count("digits", b)
	}

	// Exact halfway cases and their neighbours: an odd 54-bit o lies
	// midway between two doubles, so o·5^j written as …e-j is a tie at
	// scale 2^-j (a quotient tie for j > 0, a product tie for j = 0),
	// and o·2^j written out whole is one at scale 2^j. An odd t·5^e of
	// 54 bits, written t·10^e, is a product tie with a positive
	// exponent. One unit more or less in the last digit falls to one
	// side. Each converts exactly when it has at most 19 digits.
	two53 := new(big.Int).Lsh(big.NewInt(1), 53)
	tie := func(m *big.Int, exp int) {
		for delta := int64(-1); delta <= 1; delta++ {
			d := new(big.Int).Add(m, big.NewInt(delta))
			b := d.Append(buf[:0], 10)
			if exp != 0 {
				b = append(b, 'e')
				b = strconv.AppendInt(b, int64(exp), 10)
			}
			if fast := convert(t, b); fast != (len(d.String()) <= maxDigits) {
				t.Fatalf("%s: converted by the scanner %v, want it for %d digits or fewer", b, fast, maxDigits)
			}
			if delta == 0 {
				count("ties", b)
			}
		}
	}
	for i := 0; i < 30_000; i++ {
		o := new(big.Int).Add(two53, big.NewInt(2*rng.Int63n(1<<52)+1))
		j := i % 6
		tie(new(big.Int).Mul(o, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(j)), nil)), -j)
		tie(new(big.Int).Lsh(o, uint(rng.Intn(11))), 0)
		e := int64(1 + rng.Intn(8))
		five := new(big.Int).Exp(big.NewInt(5), big.NewInt(e), nil)
		t5 := new(big.Int).Quo(o, five)
		t5.SetBit(t5, 0, 1)
		if new(big.Int).Mul(t5, five).Cmp(two53) < 0 {
			t5.Add(t5, big.NewInt(2))
		}
		tie(t5, int(e))
	}
	for mix, c := range mixes {
		t.Logf("%s: %d converted, %d to strconv", mix, c.fast, c.slow)
		if c.fast == 0 || c.slow == 0 {
			t.Errorf("%s: %d converted, %d to strconv; want both sides of the limits", mix, c.fast, c.slow)
		}
	}

	for _, e := range []struct {
		lit  string
		fast bool
	}{
		{"0", true}, {"-0", true}, {"0e5", true}, {"-0.0e-400", true},
		{"0.000123", true}, {"-0.0000000000000000001", true},
		{"1e19", true}, {"1e-19", true}, {"1e20", false}, {"1e-20", false},
		{"10e19", true}, {"0.1e20", true}, {"123456789e-28", false},
		{"9999999999999999999", true}, {"18446744073709551615", false},
		{"9999999999999999999e19", true}, {"9999999999999999999e-19", true},
		{"3600", true}, {"9007199254740993", true}, {"9007199254740993e-4", true},
		{"1e400", false}, {"-1e400", false}, {"1e-400", false}, {"1e100000000000000000000", false},
		{"4.9e-324", false}, {"1.7976931348623157e308", false}, {"1.7976931348623159e308", false},
		{"0.00000000000000000000000000001", false}, {"1E+2", true}, {"1.000000000000000000000", false},
	} {
		if fast := convert(t, []byte(e.lit)); fast != e.fast {
			t.Errorf("%s: converted by the scanner %v, want %v", e.lit, fast, e.fast)
		}
	}
}

// TestIntegerMatchesParseInt: int fields take the mantissa when it
// fits, and agree with strconv.ParseInt at and past the int64 limits;
// 2^63 is out of range, which declines to encoding/json.
func TestIntegerMatchesParseInt(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the limits below are int64's")
	}
	lits := []string{"0", "-0", "1", "-1", "3600", "9223372036854775807", "-9223372036854775807",
		"-9223372036854775808", "9223372036854775808", "-9223372036854775809",
		"9999999999999999999", "18446744073709551616", "123456789012345678901234567890"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		lits = append(lits, strconv.FormatInt(rng.Int63()>>rng.Intn(63)*int64(1-2*rng.Intn(2)), 10))
	}
	for _, lit := range lits {
		want, werr := strconv.ParseInt(lit, 10, 64)
		d := decoder{data: []byte(lit)}
		var got int
		ok := d.integer(&got)
		if ok != (werr == nil) || ok && int64(got) != want {
			t.Fatalf("%s: scanner reads %d (ok %v), strconv.ParseInt %d (err %v)", lit, got, ok, want, werr)
		}
	}
}
