package core

import "testing"

func TestFingerprintDeterministic(t *testing.T) {
	a, b := DefaultConfig(), DefaultConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configurations hash differently")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := DefaultConfig()
	mutate := map[string]func(c *Config){
		"period": func(c *Config) { c.Period = 1800 },
		"poff":   func(c *Config) { c.POff *= 2 },
		"alpha":  func(c *Config) { c.Alpha = 2 },
		"dp accuracy": func(c *Config) {
			c.DPs = append([]DesignPoint(nil), c.DPs...)
			c.DPs[0].Accuracy = 0.95
		},
		"dp power": func(c *Config) {
			c.DPs = append([]DesignPoint(nil), c.DPs...)
			c.DPs[2].Power *= 1.001
		},
		"dp dropped": func(c *Config) { c.DPs = c.DPs[:len(c.DPs)-1] },
		"dp order": func(c *Config) {
			c.DPs = append([]DesignPoint(nil), c.DPs...)
			c.DPs[0], c.DPs[1] = c.DPs[1], c.DPs[0]
		},
		// Negating two adjacent fields flips the sign bit of two
		// consecutive words, which a plain xor-then-multiply round
		// (word-wise FNV-1a) cancels out.
		"period and poff negated": func(c *Config) { c.Period, c.POff = -c.Period, -c.POff },
		"dp accuracy and power negated": func(c *Config) {
			c.DPs = append([]DesignPoint(nil), c.DPs...)
			c.DPs[3].Accuracy, c.DPs[3].Power = -c.DPs[3].Accuracy, -c.DPs[3].Power
		},
	}
	for name, f := range mutate {
		c := base
		f(&c)
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
}

func TestFingerprintIgnoresNames(t *testing.T) {
	a := DefaultConfig()
	b := DefaultConfig()
	b.DPs = append([]DesignPoint(nil), b.DPs...)
	for i := range b.DPs {
		b.DPs[i].Name = "renamed"
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("design-point names must not affect the fingerprint (they never reach the LP)")
	}
}

var fingerprintSink uint64

// BenchmarkFingerprint times the plan memo's key for the paper's five
// design points: every PlanFor call, so every SolveBatch item and every
// NewController, pays it.
func BenchmarkFingerprint(b *testing.B) {
	cfg := DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprintSink ^= cfg.Fingerprint()
	}
}
