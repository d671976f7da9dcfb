package client_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"primecache/internal/client"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// overloadedBody is the unified envelope an overloaded server emits.
const overloadedBody = `{"error":{"code":"overloaded","message":"queue full","retry_after_ms":10}}`

// shedThenServe returns a handler that sheds the first n requests with a
// 429 envelope and then answers with ok.
func shedThenServe(n int64, attempts *atomic.Int64, ok string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if attempts.Add(1) <= n {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(overloadedBody))
			return
		}
		w.Write([]byte(ok))
	}
}

func TestRetriesOverloadedThenSucceeds(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(shedThenServe(2, &attempts, `{"memoized":true,"cache":"prime"}`))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(3), client.WithBackoff(time.Millisecond, 20*time.Millisecond), client.WithSeed(1))
	res, err := c.Simulate(context.Background(), server.SimulateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (two sheds + one success)", got)
	}
	if !res.Memoized || res.Cache != "prime" {
		t.Errorf("response not decoded: %+v", res)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(shedThenServe(1<<30, &attempts, ""))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(2), client.WithBackoff(time.Millisecond, 5*time.Millisecond), client.WithSeed(1))
	_, err := c.Simulate(context.Background(), server.SimulateRequest{})
	var ce *client.Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *client.Error", err)
	}
	if ce.Code != server.CodeOverloaded || ce.Status != http.StatusTooManyRequests {
		t.Errorf("error = %+v, want overloaded/429", ce)
	}
	if ce.RetryAfter != 10*time.Millisecond {
		t.Errorf("RetryAfter = %v, want 10ms from the envelope", ce.RetryAfter)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (initial + 2 retries)", got)
	}
}

func TestNoRetryOnPermanentError(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":{"code":"invalid_request","message":"bad passes"}}`))
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(5), client.WithSeed(1))
	_, err := c.Simulate(context.Background(), server.SimulateRequest{})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != server.CodeInvalidRequest {
		t.Fatalf("err = %v, want invalid_request client error", err)
	}
	if ce.Temporary() {
		t.Error("invalid_request reported Temporary")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1 (no retry on permanent errors)", got)
	}
}

func TestRetryAfterHeaderFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"later"}}`))
	}))
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(0))
	_, err := c.Simulate(context.Background(), server.SimulateRequest{})
	var ce *client.Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *client.Error", err)
	}
	if ce.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v, want 7s parsed from the header", ce.RetryAfter)
	}
}

func TestContextCancelsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":{"code":"overloaded","message":"later","retry_after_ms":60000}}`))
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	c := client.New(ts.URL, client.WithRetries(5), client.WithBackoff(time.Minute, time.Minute), client.WithSeed(1))
	start := time.Now()
	_, err := c.Simulate(ctx, server.SimulateRequest{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancelled call took %v, backoff did not honor ctx", took)
	}
}

// TestEndToEndAgainstRealServer drives every client method against an
// actual vcached instance, not a stub.
func TestEndToEndAgainstRealServer(t *testing.T) {
	s := server.New(server.Options{Workers: 2, MemoEntries: 16})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL, client.WithSeed(1))
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	req := server.SimulateRequest{Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 4096}, Passes: 2}
	res, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Stats.Accesses == 0 {
		t.Error("simulate returned empty stats")
	}
	again, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("second simulate: %v", err)
	}
	if !again.Memoized {
		t.Error("identical second request not memoized")
	}
	mres, err := c.Model(ctx, server.ModelRequest{})
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	if mres.Speedup <= 0 {
		t.Error("model returned no speedup")
	}
	sres, err := c.Sweep(ctx, server.SweepRequest{Jobs: []server.SweepJob{
		{Simulate: &req}, {Model: &server.ModelRequest{}},
	}})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(sres) != 2 || sres[0].Simulate == nil || sres[1].Model == nil {
		t.Errorf("sweep results malformed: %+v", sres)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Pool.Workers != 2 {
		t.Errorf("stats workers = %d, want 2", stats.Pool.Workers)
	}
	if stats.Admission.Capacity == 0 {
		t.Error("stats admission capacity missing")
	}
	// A validation error surfaces as a typed permanent error.
	_, err = c.Simulate(ctx, server.SimulateRequest{Passes: -1})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != server.CodeInvalidRequest {
		t.Errorf("bad request err = %v, want invalid_request", err)
	}
}

// flakySheds builds a FaultFunc that force-sheds the first n admit
// attempts, so a real vcached instance behaves like a flaky overloaded
// backend with fully deterministic timing.
func flakySheds(n uint64) server.FaultFunc {
	return func(stage string, seq uint64) server.Fault {
		if stage == "admit" && seq <= n {
			return server.Fault{QueueFull: true}
		}
		return server.Fault{}
	}
}

// TestRetryRecoversFromFlakyBackend drives the client against a real
// fault-injected vcached: the first two admits are force-shed with the
// organic 429 envelope, the third succeeds. The retry loop must absorb
// both sheds.
func TestRetryRecoversFromFlakyBackend(t *testing.T) {
	s := server.New(server.Options{Workers: 1, Faults: flakySheds(2)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(3),
		client.WithBackoff(time.Millisecond, 10*time.Millisecond),
		client.WithRand(rand.NewSource(7)))
	res, err := c.Simulate(context.Background(), server.SimulateRequest{
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 512},
	})
	if err != nil {
		t.Fatalf("simulate through flaky backend: %v", err)
	}
	if res.Stats.Accesses == 0 {
		t.Error("empty stats from recovered request")
	}
	if shed := s.Metrics().Value("vcached_admission_shed_total"); shed != 2 {
		t.Errorf("backend shed %v requests, want 2", shed)
	}
}

// TestRetryBudgetExhaustedAgainstFlakyBackend exhausts the budget
// against a backend that sheds every admit: the caller must get the
// typed overloaded error after exactly initial+retries attempts.
func TestRetryBudgetExhaustedAgainstFlakyBackend(t *testing.T) {
	s := server.New(server.Options{Workers: 1, Faults: flakySheds(1 << 30)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(2),
		client.WithBackoff(time.Millisecond, 2*time.Millisecond),
		client.WithRand(rand.NewSource(7)))
	_, err := c.Simulate(context.Background(), server.SimulateRequest{
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 512},
	})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != server.CodeOverloaded {
		t.Fatalf("err = %v, want typed overloaded error", err)
	}
	if shed := s.Metrics().Value("vcached_admission_shed_total"); shed != 3 {
		t.Errorf("backend saw %v attempts, want 3 (initial + 2 retries)", shed)
	}
}

// TestRetryAfterFloorsBackoff checks the hint is a floor: with a 1ms
// backoff base but a server-priced Retry-After (≥100ms by construction,
// see retryAfterHint), two retries must take at least 200ms — the bare
// exponential schedule alone would finish in single-digit milliseconds.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	s := server.New(server.Options{Workers: 1, Faults: flakySheds(1 << 30)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(2),
		client.WithBackoff(time.Millisecond, 5*time.Second),
		client.WithRand(rand.NewSource(7)))
	start := time.Now()
	_, err := c.Simulate(context.Background(), server.SimulateRequest{
		Pattern: trace.Pattern{Name: "strided", Stride: 3, N: 512},
	})
	took := time.Since(start)
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != server.CodeOverloaded {
		t.Fatalf("err = %v, want typed overloaded error", err)
	}
	if ce.RetryAfter < 100*time.Millisecond {
		t.Fatalf("shed envelope RetryAfter = %v, want ≥ 100ms from the server's pricing", ce.RetryAfter)
	}
	if took < 200*time.Millisecond {
		t.Errorf("two floored retries took %v, want ≥ 200ms (hint not honored as floor)", took)
	}
}

// TestReadyzProbe checks the probe distinguishes ready, draining, and
// gone backends.
func TestReadyzProbe(t *testing.T) {
	s := server.New(server.Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL)
	rz, err := c.Readyz(context.Background())
	if err != nil || rz == nil || rz.Draining {
		t.Fatalf("readyz on live server = %+v, %v; want ready", rz, err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rz, err = c.Readyz(context.Background())
	if err == nil {
		t.Fatal("readyz on draining server returned nil error")
	}
	if rz == nil || !rz.Draining {
		t.Fatalf("readyz on draining server = %+v, want draining body alongside the error", rz)
	}
	ts.Close()
	if _, err := c.Readyz(context.Background()); err == nil {
		t.Fatal("readyz on dead server returned nil error")
	}
}
