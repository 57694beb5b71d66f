package serve

import (
	"sync"
	"time"
)

// TokenBucket is the per-tenant admission controller: a classic
// leaky-bucket rate limiter refilled continuously at Rate tokens per
// second up to Burst. A nil bucket admits everything (unlimited
// tenants, closed-loop benchmarks).
//
// Admission happens before any queueing, so a throttled tenant costs
// the server one mutex acquisition and nothing else — overload from a
// single tenant never reaches the shard queues of the others.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewTokenBucket builds a bucket that starts full. rate <= 0 returns
// nil — the unlimited bucket.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Take withdraws n tokens at time now. When the bucket cannot cover n
// it withdraws nothing and returns the wait until it could — the
// Retry-After hint for the 429 response.
func (b *TokenBucket) Take(n float64, now time.Time) (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		// Rounded on its own: no GOARCH fuses the refill into the add.
		b.tokens += float64(now.Sub(b.last).Seconds() * b.rate)
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	need := n - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}
