package service

import (
	"sync"
	"time"
)

// limiter is the per-tenant token-bucket admission controller: each
// tenant owns a bucket refilled at rate tokens/second up to burst.
// Admitting work costs one token per solve, so a batch of N items
// charges N — a tenant cannot buy cheaper solves by batching harder.
//
// The bucket map grows one entry per distinct tenant string and is
// never pruned: reapd deployments name tenants, they don't mint them
// per request. The clock is injectable for tests.
type limiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64 // bucket depth
	now     func() time.Time
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newLimiter(rate, burst float64) *limiter {
	return &limiter{
		rate:    rate,
		burst:   burst,
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// admit charges cost tokens against the tenant's bucket. Work is
// admitted once the bucket holds min(cost, burst) tokens, since a
// bucket never holds more than burst, and is charged in full: a batch
// that costs more than burst leaves the bucket in debt, which the
// tenant's next admission waits to refill. Otherwise admit refuses and
// returns how long the tenant must wait for the deficit to refill — the
// Retry-After hint. Refused work is not charged.
func (l *limiter) admit(tenant string, cost float64) (retryAfter time.Duration, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, exists := l.buckets[tenant]
	if !exists {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	need := min(cost, l.burst)
	if b.tokens >= need {
		b.tokens -= cost
		return 0, true
	}
	deficit := need - b.tokens
	return time.Duration(deficit / l.rate * float64(time.Second)), false
}
