package wire

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// This file is the encoder's shortest-decimal formatter for the floats
// encoding/json writes in plain notation, 1e-6 ≤ |f| < 1e21. It writes
// strconv.AppendFloat(dst, f, 'f', -1, 64)'s bytes: the shortest digits
// that read back as f, the closest to f when several are that short,
// ties to even. The digits come from R. Giulietti's Schubfach ("The
// Schubfach way to render doubles", 2020; the algorithm behind JDK 19's
// Double.toString): three 128-bit products of the rounding interval's
// bounds against one table entry of powers of ten, where strconv's Ryū
// pays for a general path. TestShortestMatchesStrconv checks it byte
// for byte against strconv over millions of values.

// pow10g holds, for each k from minK to minK+len(pow10g)−1,
// g(k) = ⌊10^−k · 2^(125 − ⌊−k·log2 10⌋)⌋ + 1, a 126-bit number split
// into its top 63 bits and its low 63 bits. A normal double in
// [1e-6, 1e21) is c·2^q with q from −72 to 17, whose k lies in −22..5.
// TestPow10gTable recomputes every entry with math/big.
var pow10g = [28][2]uint64{
	{0x43c33c1937564800, 0x0000000000000001}, // −22
	{0x6c6b935b8bbd4000, 0x0000000000000001}, // −21
	{0x56bc75e2d6310000, 0x0000000000000001}, // −20
	{0x4563918244f40000, 0x0000000000000001}, // −19
	{0x6f05b59d3b200000, 0x0000000000000001}, // −18
	{0x58d15e1762800000, 0x0000000000000001}, // −17
	{0x470de4df82000000, 0x0000000000000001}, // −16
	{0x71afd498d0000000, 0x0000000000000001}, // −15
	{0x5af3107a40000000, 0x0000000000000001}, // −14
	{0x48c2739500000000, 0x0000000000000001}, // −13
	{0x746a528800000000, 0x0000000000000001}, // −12
	{0x5d21dba000000000, 0x0000000000000001}, // −11
	{0x4a817c8000000000, 0x0000000000000001}, // −10
	{0x7735940000000000, 0x0000000000000001}, // −9
	{0x5f5e100000000000, 0x0000000000000001}, // −8
	{0x4c4b400000000000, 0x0000000000000001}, // −7
	{0x7a12000000000000, 0x0000000000000001}, // −6
	{0x61a8000000000000, 0x0000000000000001}, // −5
	{0x4e20000000000000, 0x0000000000000001}, // −4
	{0x7d00000000000000, 0x0000000000000001}, // −3
	{0x6400000000000000, 0x0000000000000001}, // −2
	{0x5000000000000000, 0x0000000000000001}, // −1
	{0x4000000000000000, 0x0000000000000001}, // 0
	{0x6666666666666666, 0x3333333333333334}, // 1
	{0x51eb851eb851eb85, 0x0f5c28f5c28f5c29}, // 2
	{0x4189374bc6a7ef9d, 0x5916872b020c49bb}, // 3
	{0x68db8bac710cb295, 0x74f0d844d013a92b}, // 4
	{0x53e2d6238da3c211, 0x43f3e0370cdc8755}, // 5
}

// minK is the k of pow10g[0].
const minK = -22

// Schubfach's exponent estimates: ⌊q·log10 2⌋, ⌊log10(¾·2^q)⌋ and
// ⌊e·log2 10⌋, each one multiply and an arithmetic shift, exact far
// beyond the exponents used here.
func flog10pow2(q int) int { return int(int64(q) * 661971961083 >> 41) }

func flog10ThreeQuartersPow2(q int) int {
	return int((int64(q)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// shortest returns the shortest decimal digits·10^exp10 that rounds to
// |f|, the closest to |f| among the shortest, ties to even. digits may
// end in zeros. f must be a normal double with 1e-6 ≤ |f| < 1e21.
//
//reap:hotpath
func shortest(f float64) (digits uint64, exp10 int) {
	b := math.Float64bits(f)
	c := 1<<52 | b&(1<<52-1)
	q := int(b>>52&0x7ff) - 1075

	// The rounding interval of c·2^q, in units of 2^(q−2): cb ± 2, but
	// from cb − 1 below a power of two, where the spacing halves. An
	// even c rounds ties to itself, so its bounds are inclusive.
	out := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	k := flog10pow2(q)
	if c == 1<<52 {
		cbl = cb - 1
		k = flog10ThreeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 2

	// f and its bounds scaled by 10^−k, in units of 10^k/4, rounded to
	// odd: an inexact product never equals the multiples of four it is
	// compared with below, so each comparison decides as the exact one.
	g := &pow10g[k-minK]
	vb := rop(g, cb<<h)
	vbl := rop(g, cbl<<h)
	vbr := rop(g, cbr<<h)

	// s·10^k is the candidate at or below f. One digit shorter, at most
	// one of 10⌊s/10⌋ and the multiple of ten above it lies inside.
	s := vb >> 2
	if s >= 100 {
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}

	// Otherwise s or s + 1, whichever lies inside, or the closer when
	// both do, ties to even.
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// rop returns cp·g·2^−127 rounded to odd, where g is the table entry
// g[0]·2^63 + g[1].
func rop(g *[2]uint64, cp uint64) uint64 {
	const mask63 = 1<<63 - 1
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&mask63+mask63)>>63
}

// eightDigits spells x < 10^8 as eight ASCII digits in a little-endian
// word, the first digit in the low byte. x splits into two halves of
// four digits, each half into two pairs and each pair into two digits,
// one multiply per split for every lane at once.
func eightDigits(x uint64) uint64 {
	v := x/10000 | x%10000<<32
	hundreds := v * 10486 >> 20 & (0x7f<<32 | 0x7f) // ⌊lane/100⌋
	v = (v-100*hundreds)<<16 | hundreds
	tens := v * 103 >> 10 & (0xf<<48 | 0xf<<32 | 0xf<<16 | 0xf) // ⌊lane/10⌋
	v = (v-10*tens)<<8 | tens
	return v + 0x3030303030303030
}

// zeros pads a number's integer part out to its decimal point, and its
// fraction in from the point; neither needs more than 20.
const zeros = "00000000000000000000"

// appendShortest appends f as strconv.AppendFloat(dst, f, 'f', -1, 64)
// does, for a double with 1e-6 ≤ |f| < 1e21: the shortest digits
// without trailing zeros, padded with zeros to the decimal point, or
// behind "0." and leading zeros when the point lies left of them.
func appendShortest(dst []byte, f float64) []byte {
	if f < 0 {
		dst = append(dst, '-')
	}
	d, exp10 := shortest(f)
	// d has 16 or 17 digits: spell 17, the first maybe a zero, then drop
	// that zero and the trailing ones.
	var buf [17]byte
	hi := d / 1e8
	buf[0] = byte('0' + hi/1e8)
	binary.LittleEndian.PutUint64(buf[1:], eightDigits(hi%1e8))
	binary.LittleEndian.PutUint64(buf[9:], eightDigits(d%1e8))
	i, n := 0, len(buf)
	if buf[0] == '0' {
		i = 1
	}
	for buf[n-1] == '0' {
		n--
		exp10++
	}
	digits := buf[i:n]
	switch point := len(digits) + exp10; {
	case point <= 0:
		dst = append(dst, "0."...)
		dst = append(dst, zeros[:-point]...)
		dst = append(dst, digits...)
	case point < len(digits):
		dst = append(dst, digits[:point]...)
		dst = append(dst, '.')
		dst = append(dst, digits[point:]...)
	default:
		dst = append(dst, digits...)
		dst = append(dst, zeros[:point-len(digits)]...)
	}
	return dst
}
