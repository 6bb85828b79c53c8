package service

import (
	"testing"
	"time"
)

// fakeClock makes the token bucket deterministic.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestLimiter(rate, burst float64) (*limiter, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	l := newLimiter(rate, burst)
	l.now = clk.now
	return l, clk
}

func TestLimiterBurstThenRefill(t *testing.T) {
	l, clk := newTestLimiter(2, 4)

	for i := range 4 {
		if _, ok := l.admit("a", 1); !ok {
			t.Fatalf("admit %d within burst refused", i)
		}
	}
	retry, ok := l.admit("a", 1)
	if ok {
		t.Fatal("admit over burst succeeded")
	}
	// Empty bucket at 2 tokens/s: one token is 500ms away.
	if retry < 400*time.Millisecond || retry > 600*time.Millisecond {
		t.Errorf("retry = %v, want ≈500ms", retry)
	}

	clk.advance(500 * time.Millisecond)
	if _, ok := l.admit("a", 1); !ok {
		t.Error("admit refused after the advertised retry interval")
	}
}

func TestLimiterRefusalNotCharged(t *testing.T) {
	l, clk := newTestLimiter(1, 1)
	if _, ok := l.admit("a", 1); !ok {
		t.Fatal("first admit refused")
	}
	// Hammer refusals; they must not push the bucket below empty.
	for range 10 {
		if _, ok := l.admit("a", 1); ok {
			t.Fatal("admit on empty bucket succeeded")
		}
	}
	clk.advance(time.Second)
	if _, ok := l.admit("a", 1); !ok {
		t.Error("one full refill interval did not restore one token")
	}
}

func TestLimiterBatchCost(t *testing.T) {
	l, _ := newTestLimiter(1, 10)
	if _, ok := l.admit("a", 8); !ok {
		t.Fatal("batch of 8 within burst refused")
	}
	retry, ok := l.admit("a", 8)
	if ok {
		t.Fatal("second batch of 8 admitted with 2 tokens left")
	}
	// 6 tokens short at 1 token/s.
	if retry < 5*time.Second || retry > 7*time.Second {
		t.Errorf("retry = %v, want ≈6s", retry)
	}
}

func TestLimiterTenantsIsolated(t *testing.T) {
	l, _ := newTestLimiter(1, 1)
	if _, ok := l.admit("a", 1); !ok {
		t.Fatal("tenant a refused its burst")
	}
	if _, ok := l.admit("b", 1); !ok {
		t.Error("tenant b affected by tenant a's spend")
	}
	if _, ok := l.admit("a", 1); ok {
		t.Error("tenant a admitted over its burst")
	}
}

func TestLimiterCapsAtBurst(t *testing.T) {
	l, clk := newTestLimiter(100, 5)
	for range 5 {
		if _, ok := l.admit("a", 1); !ok {
			t.Fatal("admit within burst refused")
		}
	}
	// A long idle period must not bank more than burst tokens.
	clk.advance(time.Hour)
	for i := range 5 {
		if _, ok := l.admit("a", 1); !ok {
			t.Fatalf("admit %d after refill refused", i)
		}
	}
	if _, ok := l.admit("a", 1); ok {
		t.Error("bucket banked more than burst over an idle hour")
	}
}

// TestLimiterBatchOverBurst: a batch that costs more than the burst is
// admitted once the bucket is full and leaves it in debt. A bucket
// capped at its burst never holds its cost, so requiring the full cost
// would refuse it forever.
func TestLimiterBatchOverBurst(t *testing.T) {
	l, clk := newTestLimiter(1, 2)
	for i := range 5 {
		clk.advance(10 * time.Second)
		if retry, ok := l.admit("a", 3); !ok {
			t.Fatalf("3-token batch %d on a full 2-token bucket refused, retry %v", i, retry)
		}
	}
	// The last batch left the bucket one token in debt.
	retry, ok := l.admit("a", 1)
	if ok {
		t.Fatal("admit right after an over-burst batch succeeded")
	}
	if retry != 2*time.Second {
		t.Errorf("retry = %v, want 2s", retry)
	}
}
