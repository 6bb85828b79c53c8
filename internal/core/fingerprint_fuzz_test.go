package core

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzConfig builds a deterministic configuration from the fuzzer's raw
// inputs: the scalar fields verbatim (any bit pattern, including NaN and
// infinities — the fingerprint must stay total) and seed-derived design
// points.
func fuzzConfig(period, poff, alpha float64, ndps int, seed int64) Config {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{Period: period, POff: poff, Alpha: alpha}
	for i := 0; i < ndps; i++ {
		cfg.DPs = append(cfg.DPs, DesignPoint{
			Name:     "dp",
			Accuracy: rng.Float64(),
			Power:    rng.Float64() * 1e-2,
		})
	}
	return cfg
}

// cloneConfig deep-copies a configuration.
func cloneConfig(c Config) Config {
	c.DPs = append([]DesignPoint(nil), c.DPs...)
	return c
}

// FuzzFingerprint checks the two properties the plan memo stakes its
// correctness on: identical canonical configurations always agree, and
// any change to a solver-read field (at the bit-pattern level) always
// changes the fingerprint — the length-prefixed encoding admits no
// concatenation collisions, so in practice distinct configurations
// never collide.
func FuzzFingerprint(f *testing.F) {
	f.Add(3600.0, 0.18/3600, 1.0, uint8(5), int64(1), uint8(0), 1.5)
	f.Add(1800.0, 0.0, 0.0, uint8(1), int64(7), uint8(2), -3.0)
	f.Add(math.Inf(1), math.NaN(), 2.0, uint8(3), int64(42), uint8(4), 0.0)
	f.Add(0.0, -1.0, 123.456, uint8(8), int64(-9), uint8(6), math.Copysign(0, -1))
	f.Fuzz(func(t *testing.T, period, poff, alpha float64, ndpsRaw uint8, seed int64, mutSel uint8, delta float64) {
		ndps := int(ndpsRaw%8) + 1
		cfg := fuzzConfig(period, poff, alpha, ndps, seed)

		// Property 1: identical configurations agree — across deep
		// copies and repeated calls.
		fp := cfg.Fingerprint()
		if got := cloneConfig(cfg).Fingerprint(); got != fp {
			t.Fatalf("deep copy fingerprints differently: %x vs %x", got, fp)
		}
		if got := cfg.Fingerprint(); got != fp {
			t.Fatalf("second call fingerprints differently: %x vs %x", got, fp)
		}

		// Design-point names never reach the LP and must not affect the
		// fingerprint.
		renamed := cloneConfig(cfg)
		for i := range renamed.DPs {
			renamed.DPs[i].Name = "renamed"
		}
		if got := renamed.Fingerprint(); got != fp {
			t.Fatalf("renaming design points changed the fingerprint: %x vs %x", got, fp)
		}

		// Property 2: mutating one solver-read field changes the
		// fingerprint, provided the mutation changed the value's bit
		// pattern (delta can be 0, NaN, or lost to rounding).
		mut := cloneConfig(cfg)
		var before, after uint64
		switch mutSel % 5 {
		case 0:
			before = math.Float64bits(mut.Period)
			mut.Period += delta
			after = math.Float64bits(mut.Period)
		case 1:
			before = math.Float64bits(mut.POff)
			mut.POff += delta
			after = math.Float64bits(mut.POff)
		case 2:
			before = math.Float64bits(mut.Alpha)
			mut.Alpha += delta
			after = math.Float64bits(mut.Alpha)
		case 3:
			i := int(mutSel/5) % len(mut.DPs)
			before = math.Float64bits(mut.DPs[i].Accuracy)
			mut.DPs[i].Accuracy += delta
			after = math.Float64bits(mut.DPs[i].Accuracy)
		case 4:
			i := int(mutSel/5) % len(mut.DPs)
			before = math.Float64bits(mut.DPs[i].Power)
			mut.DPs[i].Power += delta
			after = math.Float64bits(mut.DPs[i].Power)
		}
		if before != after && mut.Fingerprint() == fp {
			t.Fatalf("mutation %d (bits %x -> %x) did not change the fingerprint", mutSel%5, before, after)
		}

		// Dropping or appending a design point always changes the
		// length prefix, hence the fingerprint.
		grown := cloneConfig(cfg)
		grown.DPs = append(grown.DPs, DesignPoint{Accuracy: 0.5, Power: 1e-3})
		if grown.Fingerprint() == fp {
			t.Fatal("appending a design point did not change the fingerprint")
		}
		shrunk := cloneConfig(cfg)
		shrunk.DPs = shrunk.DPs[:len(shrunk.DPs)-1]
		if shrunk.Fingerprint() == fp {
			t.Fatal("dropping a design point did not change the fingerprint")
		}
	})
}
