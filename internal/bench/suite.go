package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/cluster"
	"primecache/internal/persist"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// Suite returns the pinned scenario list. Names are part of the BENCH
// file contract: renaming one makes `primebench compare` report the old
// name missing, which fails — update the committed baseline in the same
// change.
func Suite() []Scenario {
	primeSpec := cache.Spec{Kind: "prime", C: 13}
	scenarios := []Scenario{
		strided64("cache/prime/strided64/per-access", specBuilder(primeSpec), false),
	}
	for _, org := range []struct {
		label string
		spec  cache.Spec
	}{
		{"prime", primeSpec},
		{"direct", cache.Spec{Kind: "direct", Lines: 8192}},
		{"assoc4", cache.Spec{Kind: "assoc", Lines: 8192, Ways: 4}},
		{"skewed", cache.Spec{Kind: "skewed", Lines: 8192}},
		{"victim", cache.Spec{Kind: "victim", Lines: 8192}},
	} {
		scenarios = append(scenarios,
			strided64(fmt.Sprintf("cache/%s/strided64/batch", org.label), specBuilder(org.spec), true))
	}
	scenarios = append(scenarios,
		strided64("cache/prefetch/strided64/batch", buildPrefetch, true),
		replayChunked(primeSpec),
		analyticSweep(primeSpec),
		serviceSimulate("service/simulate/memo-hit", true),
		serviceSimulate("service/simulate/memo-miss", false),
		serviceOverload(),
		serviceWarmRestart(),
		clusterSweepScatter(),
	)
	return scenarios
}

func specBuilder(spec cache.Spec) func() (cache.Sim, error) {
	return spec.Build
}

// buildPrefetch assembles the one organisation Spec.Build cannot: a
// stride-prefetching wrapper over a small direct-mapped cache.
func buildPrefetch() (cache.Sim, error) {
	base, err := cache.NewDirect(256)
	if err != nil {
		return nil, err
	}
	return cache.NewPrefetchCache(base, cache.PrefetchStride, 2)
}

// strided64 measures the paper's canonical vector access — a 64-element
// stride-512 sweep — in steady state (the first pass runs at setup), per
// access through the Sim interface or in batches through
// cache.AccessBatch.
func strided64(name string, build func() (cache.Sim, error), batch bool) Scenario {
	return Scenario{Name: name, Refs: 64, Setup: func() (func() error, func(), error) {
		sim, err := build()
		if err != nil {
			return nil, nil, err
		}
		accs := make([]cache.Access, 64)
		for i := range accs {
			accs[i] = cache.Access{Addr: uint64(i) * 512 * 8, Stream: 1}
		}
		cache.AccessBatch(sim, accs, nil) // warm: steady-state passes only
		if batch {
			return func() error { cache.AccessBatch(sim, accs, nil); return nil }, nil, nil
		}
		return func() error {
			for _, a := range accs {
				sim.Access(a)
			}
			return nil
		}, nil, nil
	}}
}

// replayChunked measures the streaming replay path end to end: a
// 64Ki-reference strided pass through trace.ReplayPattern (cursor +
// fixed-size batches), the loop the server runs for non-vector patterns.
func replayChunked(spec cache.Spec) Scenario {
	const n = 1 << 16
	return Scenario{Name: "cache/prime/replay-chunked-64k", Refs: n, Setup: func() (func() error, func(), error) {
		sim, err := spec.Build()
		if err != nil {
			return nil, nil, err
		}
		p := trace.Pattern{Name: "strided", Stride: 512, N: n, Stream: 1}
		if _, err := trace.ReplayPattern(sim, p, 1); err != nil { // warm + validate
			return nil, nil, err
		}
		return func() error {
			_, err := trace.ReplayPattern(sim, p, 1)
			return err
		}, nil, nil
	}}
}

// analyticSweep measures the closed-form strided-sweep model — the
// O(passes) arithmetic that replaces a 32M-reference simulation for
// qualifying jobs.
func analyticSweep(spec cache.Spec) Scenario {
	return Scenario{Name: "cache/prime/analytic-sweep", Setup: func() (func() error, func(), error) {
		return func() error {
			if _, ok := cache.StridedSweepStats(spec, 9, 512, 1<<22, 8, 1); !ok {
				return fmt.Errorf("closed form declined the sweep")
			}
			return nil
		}, nil, nil
	}}
}

// serviceSimulate measures one /v1/simulate round trip against an
// in-process vcached instance: memo-hit repeats one request (served from
// the memoizer), memo-miss varies the pattern every op (every request
// simulates 2×2048 references).
func serviceSimulate(name string, hit bool) Scenario {
	refs := 2 * 2048
	if hit {
		refs = 0 // memoized: no references are simulated
	}
	return Scenario{Name: name, Refs: refs, Setup: func() (func() error, func(), error) {
		srv := server.New(server.Options{})
		ts := httptest.NewServer(srv.Handler())
		cleanup := func() {
			ts.Close()
			srv.Close()
		}
		client := ts.Client()
		post := func(start uint64) error {
			body, err := json.Marshal(server.SimulateRequest{
				Cache:   cache.Spec{Kind: "prime", C: 7},
				Pattern: trace.Pattern{Name: "strided", Start: start * 1024, Stride: 7, N: 2048},
			})
			if err != nil {
				return err
			}
			resp, err := client.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("simulate status %d", resp.StatusCode)
			}
			return nil
		}
		var seq uint64
		op := func() error {
			var v uint64
			if !hit {
				seq++
				v = seq
			}
			return post(v)
		}
		return op, cleanup, nil
	}}
}

// serviceWarmRestart measures the disk tier end to end: setup computes
// a band of jobs on a vcached instance over a persist directory, shuts
// it down gracefully (fsync + snapshot), then boots a fresh instance on
// the same directory with the in-memory memoizer disabled — so every
// measured op answers a pre-restart job straight from the warm-start
// store (decode, disk lookup, CRC re-verify, respond), never from
// memory and never by recomputing. Compare against
// service/simulate/memo-miss for the cold cost of the same round trip.
func serviceWarmRestart() Scenario {
	const jobs = 8
	return Scenario{Name: "service/vcached-warm-restart", Setup: func() (func() error, func(), error) {
		dir, err := os.MkdirTemp("", "primebench-warm-*")
		if err != nil {
			return nil, nil, err
		}
		fail := func(err error) (func() error, func(), error) {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		reqs := make([]server.SimulateRequest, jobs)
		for i := range reqs {
			reqs[i] = server.SimulateRequest{
				Cache:   cache.Spec{Kind: "assoc", Lines: 4096, Ways: 4},
				Pattern: trace.Pattern{Name: "strided", Stride: int64(7 + 2*i), N: 8192, Stream: 1},
				Passes:  2,
			}
		}
		// First incarnation: compute the band, then shut down cleanly so
		// the directory ends with a snapshot to restore from.
		store, err := persist.Open(persist.Options{Dir: dir})
		if err != nil {
			return fail(err)
		}
		srv1 := server.New(server.Options{Persist: store})
		ts1 := httptest.NewServer(srv1.Handler())
		c1 := client.New(ts1.URL, client.WithRetries(0), client.WithHTTPClient(ts1.Client()))
		for _, rq := range reqs {
			if _, err := c1.Simulate(context.Background(), rq); err != nil {
				ts1.Close()
				srv1.Close()
				return fail(fmt.Errorf("warm-restart setup compute: %w", err))
			}
		}
		ts1.Close()
		if err := srv1.Shutdown(context.Background()); err != nil {
			return fail(err)
		}
		store2, err := persist.Open(persist.Options{Dir: dir})
		if err != nil {
			return fail(err)
		}
		srv2 := server.New(server.Options{Persist: store2, MemoEntries: -1})
		ts2 := httptest.NewServer(srv2.Handler())
		c2 := client.New(ts2.URL, client.WithRetries(0), client.WithHTTPClient(ts2.Client()))
		cleanup := func() {
			ts2.Close()
			srv2.Close()
			os.RemoveAll(dir)
		}
		var seq int
		op := func() error {
			rq := reqs[seq%jobs]
			seq++
			res, err := c2.Simulate(context.Background(), rq)
			if err != nil {
				return err
			}
			if !res.Memoized {
				return fmt.Errorf("warm restart recomputed stride %d instead of serving it from disk", rq.Pattern.Stride)
			}
			return nil
		}
		return op, cleanup, nil
	}}
}

// clusterSweepScatter measures the coordinator's scatter-gather path:
// one op sends a 48-job sweep through a 3-backend in-process cluster.
// The jobs repeat across ops, so after the warm-up every backend answers
// its shard from its memoizer — the number tracks pure cluster overhead
// (routing, fan-out over loopback HTTP, ordered merge), the fixed cost
// sharding adds on top of single-node serving.
func clusterSweepScatter() Scenario {
	const jobs = 48
	return Scenario{Name: "cluster/sweep-scatter", Setup: func() (func() error, func(), error) {
		lc, err := cluster.StartLocal(3, server.Options{}, cluster.Options{
			ProbeInterval: -1,
			HedgeAfter:    -1,
		})
		if err != nil {
			return nil, nil, err
		}
		var req server.SweepRequest
		for i := 0; i < jobs; i++ {
			req.Jobs = append(req.Jobs, server.SweepJob{Simulate: &server.SimulateRequest{
				Cache:   cache.Spec{Kind: "prime", C: 7},
				Pattern: trace.Pattern{Name: "strided", Stride: int64(3 + 2*i), N: 1024, Stream: 1},
			}})
		}
		c := client.New(lc.URL(), client.WithRetries(0))
		op := func() error {
			results, err := c.Sweep(context.Background(), req)
			if err != nil {
				return err
			}
			if len(results) != jobs {
				return fmt.Errorf("cluster sweep returned %d of %d results", len(results), jobs)
			}
			for _, r := range results {
				if r.Error != "" {
					return fmt.Errorf("cluster sweep job %d failed: %s", r.Index, r.Error)
				}
			}
			return nil
		}
		return op, lc.Close, nil
	}}
}

// serviceOverload measures vcached throughput at 4× pool saturation:
// every op fires 8 concurrent distinct simulate requests at a 2-worker,
// zero-backlog instance through the typed client (no retries). Admitted
// requests simulate; the rest exercise the shed fast path — both
// outcomes count, so the number tracks how much useful work plus
// rejection the valve sustains per second under sustained overload.
func serviceOverload() Scenario {
	const (
		workers    = 2
		concurrent = 4 * workers
		jobRefs    = 2 * 2048
	)
	return Scenario{Name: "service/vcached-overload", Refs: concurrent * jobRefs, Setup: func() (func() error, func(), error) {
		srv := server.New(server.Options{Workers: workers, QueueDepth: -1})
		ts := httptest.NewServer(srv.Handler())
		cleanup := func() {
			ts.Close()
			srv.Close()
		}
		c := client.New(ts.URL, client.WithRetries(0), client.WithHTTPClient(ts.Client()))
		var seq uint64
		op := func() error {
			base := seq
			seq += concurrent
			errs := make(chan error, concurrent)
			for i := 0; i < concurrent; i++ {
				go func(start uint64) {
					_, err := c.Simulate(context.Background(), server.SimulateRequest{
						Cache:   cache.Spec{Kind: "prime", C: 7},
						Pattern: trace.Pattern{Name: "strided", Start: start * 1024, Stride: 7, N: 2048},
					})
					var ce *client.Error
					if err != nil && errors.As(err, &ce) && ce.Code == server.CodeOverloaded {
						err = nil // shedding is the scenario, not a failure
					}
					errs <- err
				}(base + uint64(i))
			}
			for i := 0; i < concurrent; i++ {
				if err := <-errs; err != nil {
					return err
				}
			}
			return nil
		}
		return op, cleanup, nil
	}}
}
