package kclient_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cuttlego/internal/faultinj"
	"cuttlego/internal/kclient"
	"cuttlego/internal/server"
)

// flakyHandler answers 503 (with Retry-After) until fail attempts have been
// burned, then succeeds.
func flakyHandler(fail int, hits *atomic.Int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= int64(fail) {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: "overloaded"})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
	}
}

func TestRetryOn503(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(flakyHandler(2, &hits))
	defer ts.Close()
	c := kclient.NewWithOptions(ts.URL, kclient.Options{
		Retry: kclient.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 7},
	})
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("health after retries: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server hit %d times, want 3 (two 503s + success)", got)
	}
}

func TestDefaultClientNeverRetries(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(flakyHandler(1, &hits))
	defer ts.Close()
	err := kclient.New(ts.URL).Health(context.Background())
	var apiErr *kclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want APIError 503", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %s, want 1s", apiErr.RetryAfter)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server hit %d times, want exactly 1", got)
	}
}

func TestNonRetryableStatusStops(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusNotFound)
		_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: "unknown session"})
	}))
	defer ts.Close()
	c := kclient.NewWithOptions(ts.URL, kclient.Options{
		Retry: kclient.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
	})
	if _, err := c.Info(context.Background(), "s1"); err == nil {
		t.Fatal("want error for 404")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("404 retried: server hit %d times, want 1", got)
	}
}

// TestIdempotencyKeyStableAcrossRetries asserts one Step sends the same
// key on every attempt (so the daemon can dedup) and a second Step sends a
// different one (so unrelated requests never collide).
func TestIdempotencyKeyStableAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(server.ErrorResponse{Error: "busy"})
			return
		}
		_ = json.NewEncoder(w).Encode(server.StepResponse{Ran: 1, Cycle: 1})
	}))
	defer ts.Close()
	c := kclient.NewWithOptions(ts.URL, kclient.Options{
		Retry: kclient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1},
	})
	if _, err := c.Step(context.Background(), "s1", 1); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := c.Step(context.Background(), "s1", 1); err != nil {
		t.Fatalf("second step: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 3 {
		t.Fatalf("saw %d requests, want 3", len(keys))
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("retry changed the idempotency key: %q then %q", keys[0], keys[1])
	}
	if keys[2] == keys[0] {
		t.Fatalf("second step reused the first step's key %q", keys[2])
	}
}

// TestTransportErrorRetrySafety: a torn round trip is ambiguous (the server
// may have executed it), so it is retried only for keyed or naturally
// idempotent requests.
func TestTransportErrorRetrySafety(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_ = json.NewEncoder(w).Encode(server.RegsResponse{Cycle: 0})
	}))
	defer ts.Close()

	t.Run("unkeyed POST is not retried", func(t *testing.T) {
		hits.Store(0)
		inj := faultinj.New(1, faultinj.Rule{Op: "http", Nth: 1, Kind: faultinj.Reset})
		c := kclient.NewWithOptions(ts.URL, kclient.Options{
			Transport: &faultinj.Transport{Inj: inj},
			Retry:     kclient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		})
		_, err := c.Regs(context.Background(), "s1", server.RegsRequest{All: true})
		if !errors.Is(err, faultinj.ErrInjected) {
			t.Fatalf("err = %v, want injected reset", err)
		}
		if got := hits.Load(); got != 1 {
			t.Fatalf("unkeyed POST hit server %d times, want 1 (no retry)", got)
		}
	})

	t.Run("GET is retried", func(t *testing.T) {
		hits.Store(0)
		inj := faultinj.New(1, faultinj.Rule{Op: "http", Nth: 1, Kind: faultinj.Reset})
		c := kclient.NewWithOptions(ts.URL, kclient.Options{
			Transport: &faultinj.Transport{Inj: inj},
			Retry:     kclient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		})
		if _, err := c.Info(context.Background(), "s1"); err != nil {
			t.Fatalf("GET after one injected reset: %v", err)
		}
		if got := hits.Load(); got != 2 {
			t.Fatalf("GET hit server %d times, want 2 (reset + retry)", got)
		}
	})

	t.Run("keyed POST is retried", func(t *testing.T) {
		hits.Store(0)
		inj := faultinj.New(1, faultinj.Rule{Op: "http", Nth: 1, Kind: faultinj.Reset})
		c := kclient.NewWithOptions(ts.URL, kclient.Options{
			Transport: &faultinj.Transport{Inj: inj},
			Retry:     kclient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
		})
		if _, err := c.Step(context.Background(), "s1", 1); err != nil {
			t.Fatalf("keyed step after one injected reset: %v", err)
		}
		if got := hits.Load(); got != 2 {
			t.Fatalf("keyed POST hit server %d times, want 2 (reset + retry)", got)
		}
	})
}
