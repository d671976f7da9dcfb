package server_test

// Overload stress suite: deterministic fault injection drives the
// admission valve, the shed path, and pressure-triggered degradation,
// all through the typed client — and each test ends in a graceful
// Shutdown so the suite doubles as a drain-safety check under -race.

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// distinctJob returns a small simulate request memoization cannot
// collapse across i.
func distinctJob(i int) server.SimulateRequest {
	return server.SimulateRequest{
		Pattern: trace.Pattern{Name: "strided", Stride: int64(2*i + 1), N: 4096},
		Passes:  2,
	}
}

// TestShedRequestsNeverReachPool: with the admit stage forced to shed,
// every request bounces with a 429 before any work is scheduled — the
// worker pool must never see a task and the admission queue must end
// empty.
func TestShedRequestsNeverReachPool(t *testing.T) {
	s := server.New(server.Options{Workers: 2, Faults: func(stage string, seq uint64) server.Fault {
		if stage == "admit" {
			return server.Fault{QueueFull: true}
		}
		return server.Fault{}
	}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(0))
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Simulate(context.Background(), distinctJob(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		var ce *client.Error
		if !errors.As(err, &ce) || ce.Code != server.CodeOverloaded {
			t.Fatalf("request %d: err = %v, want overloaded", i, err)
		}
		if ce.RetryAfter <= 0 {
			t.Errorf("request %d: shed without a Retry-After hint", i)
		}
	}

	// Stats must still answer while the server sheds (healthz/stats
	// bypass admission), and must show the pool untouched.
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatalf("stats during shed: %v", err)
	}
	if stats.Admission.Shed != n {
		t.Errorf("admission.shed = %d, want %d", stats.Admission.Shed, n)
	}
	if got := s.Metrics().Value("vcached_pool_completed_total"); got != 0 {
		t.Errorf("pool completed %v tasks; shed requests must never reach the pool", got)
	}
	if got := s.Metrics().Value("vcached_pool_busy"); got != 0 {
		t.Errorf("pool.busy = %v, want 0", got)
	}
	if got := s.Metrics().Value("vcached_admission_queued"); got != 0 {
		t.Errorf("admission.queued = %v after all requests returned, want 0", got)
	}
}

// TestOverloadBurstShedsAndDrains: a burst of distinct jobs against a
// one-worker, zero-backlog server with slowed compute must split into
// some successes and some organic 429s (no forced shed — the queue
// really fills), and the server must then drain cleanly.
func TestOverloadBurstShedsAndDrains(t *testing.T) {
	s := server.New(server.Options{
		Workers:    1,
		QueueDepth: -1, // capacity == worker count: the narrowest valve
		Faults: func(stage string, seq uint64) server.Fault {
			if stage == "compute" {
				return server.Fault{Latency: 30 * time.Millisecond}
			}
			return server.Fault{}
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(0))
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Simulate(context.Background(), distinctJob(i))
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		default:
			var ce *client.Error
			if !errors.As(err, &ce) || ce.Code != server.CodeOverloaded {
				t.Fatalf("request %d: err = %v, want nil or overloaded", i, err)
			}
			if ce.RetryAfter <= 0 {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
			shed++
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("burst split ok=%d shed=%d; want both non-zero", ok, shed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after burst: %v", err)
	}
	if got := s.Metrics().Value("vcached_admission_queued"); got != 0 {
		t.Errorf("admission.queued = %v after drain, want 0", got)
	}
}

// TestDegradedAnalyticUnderPressure: when admission pressure crosses the
// threshold, a qualifying strided job below the analytic cutoff is
// answered by the closed form with degraded:true — and its stats are
// byte-identical to what an unloaded server simulates for the same
// request. Degraded results must also stay out of the memoizer.
func TestDegradedAnalyticUnderPressure(t *testing.T) {
	// capacity == 1, threshold 0.5: a request's own admission slot pushes
	// pressure to 1.0, so every admitted request computes in degraded mode.
	pressured := server.New(server.Options{Workers: 1, QueueDepth: -1, DegradeThreshold: 0.5})
	defer pressured.Shutdown(context.Background())
	pts := httptest.NewServer(pressured.Handler())
	defer pts.Close()

	calm := server.New(server.Options{Workers: 1})
	defer calm.Shutdown(context.Background())
	cts := httptest.NewServer(calm.Handler())
	defer cts.Close()

	// Prime C=13 (8191 sets), 2^17 refs × 2 passes = 262144 references:
	// far below the 2^22 analytic cutoff, above the degraded-path floor
	// of 2× the guard replay (2 passes × 16383 refs).
	req := server.SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Start: 7, Stride: 129, N: 1 << 17, Stream: 1},
		Passes:  2,
	}
	ctx := context.Background()
	fast, err := client.New(pts.URL).Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := client.New(cts.URL).Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Degraded || !fast.Analytic {
		t.Fatalf("pressured response not flagged degraded+analytic: %+v", fast.SimulateResponse)
	}
	if slow.Degraded || slow.Analytic {
		t.Fatalf("calm response unexpectedly analytic: %+v", slow.SimulateResponse)
	}
	// Same schema, same numbers: only the flags may differ.
	f, sl := fast.SimulateResponse, slow.SimulateResponse
	f.Analytic, f.Degraded = false, false
	if f != sl {
		t.Errorf("degraded stats diverge from simulation:\n degraded %+v\n simulated %+v", f, sl)
	}

	// A degraded answer must not poison the memo: the identical request
	// recomputes (Memoized=false) rather than replaying a result whose
	// flag described an earlier pressure state.
	again, err := client.New(pts.URL).Simulate(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if again.Memoized {
		t.Error("degraded result was served from the memoizer")
	}
	stats, err := client.New(pts.URL).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Admission.Degraded < 2 {
		t.Errorf("admission.degraded = %d, want >= 2", stats.Admission.Degraded)
	}
}
