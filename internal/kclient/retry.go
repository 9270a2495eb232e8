package kclient

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"math"
	mrand "math/rand"
	"net/http"
	"sync"
	"time"
)

// RetryPolicy shapes the client's retry loop. The zero value never retries,
// which is New's default: retrying mutating requests is only safe when the
// daemon deduplicates them, so the caller must opt in.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request (default 1; the
	// first attempt counts).
	MaxAttempts int
	// BaseDelay is the first backoff (default 25ms); each retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s). A server Retry-After hint
	// overrides the computed delay when it is longer.
	MaxDelay time.Duration
	// Seed, when non-zero, makes the backoff jitter deterministic — chaos
	// tests replay identical schedules. Zero uses the shared global source.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// Options configures a client beyond the daemon address.
type Options struct {
	// Transport overrides the HTTP transport (fault injection hooks in
	// here); nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Retry is the retry policy; the zero value never retries.
	Retry RetryPolicy
	// RequestTimeout bounds each individual attempt (not the whole retry
	// loop — the caller's ctx does that). Zero means no per-attempt bound.
	RequestTimeout time.Duration
}

// jitterSource serializes jitter draws; a seeded math/rand.Rand is not
// goroutine-safe.
type jitterSource struct {
	mu  sync.Mutex
	rng *mrand.Rand // nil: use the shared global source
}

func (j *jitterSource) float64() float64 {
	if j.rng == nil {
		return mrand.Float64()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rng.Float64()
}

// backoff computes the delay before retry number retryN (1-based):
// exponential doubling from BaseDelay, capped at MaxDelay, with ±50%
// jitter so a fleet of retrying clients does not stampede in lockstep. A
// server Retry-After hint wins when longer; an explicit hint of zero
// ("Retry-After: 0", or an HTTP-date already in the past) means retry
// immediately, not "fall back to the backoff schedule".
func (c *Client) backoff(retryN int, hint time.Duration, hasHint bool) time.Duration {
	if hasHint && hint == 0 {
		return 0
	}
	d := float64(c.retry.BaseDelay) * math.Pow(2, float64(retryN-1))
	if max := float64(c.retry.MaxDelay); d > max {
		d = max
	}
	d = d/2 + d/2*c.jitter.float64()
	delay := time.Duration(d)
	if hint > delay {
		delay = hint
	}
	return delay
}

// retryable reports whether err is worth retrying. Daemon overload answers
// (429, 503) and gateway-style failures (502, 504) are always retryable —
// the request did not execute, or executed and is idempotent to repeat.
// Transport-level failures (reset connections, timeouts, torn bodies) are
// ambiguous: the request may have executed and the response been lost, so
// they are retried only when the request is keyed (the daemon deduplicates)
// or naturally idempotent (GET/DELETE).
func retryable(err error, method string, keyed bool) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false // the caller's budget is spent
	}
	return keyed || method == http.MethodGet || method == http.MethodDelete
}

// newIdemKey mints a fresh idempotency key; it stays constant across one
// request's retries so the daemon can deduplicate them.
func newIdemKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant key would
		// dedup unrelated requests, so fall back to the jitter source.
		return "weak-" + hex.EncodeToString([]byte{byte(mrand.Int()), byte(mrand.Int()), byte(mrand.Int()), byte(mrand.Int())})
	}
	return hex.EncodeToString(b[:])
}
