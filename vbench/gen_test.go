package main

import (
	"context"
	"reflect"
	"testing"

	"primecache/internal/server"
)

// simColdKeys returns the keys of the first n sim-cold jobs of seed.
func simColdKeys(seed int64, n int) []string {
	g := newSimColdGen(seed)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = g.next().Key()
	}
	return keys
}

func memoHotOps(seed int64, n int) []memoHotOp {
	g := newMemoHotGen(seed)
	ops := make([]memoHotOp, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

// churnSweeps returns the set-up jobs and the first n sweeps of seed,
// as keys, with each sweep's count of new jobs.
func churnSweeps(seed int64, n int) (warm []string, sweeps [][]string, fresh []int) {
	g := newSweepChurnGen(seed)
	for _, j := range g.warm() {
		warm = append(warm, j.Key())
	}
	for i := 0; i < n; i++ {
		sw, nNew := g.next()
		var keys []string
		for _, j := range sw.Jobs {
			keys = append(keys, j.Key())
		}
		sweeps = append(sweeps, keys)
		fresh = append(fresh, nNew)
	}
	return warm, sweeps, fresh
}

func popKeys(jobs []server.SweepJob) []string {
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i] = j.Key()
	}
	return keys
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func(seed int64) any
	}{
		{"sim-cold", func(s int64) any { return simColdKeys(s, 500) }},
		{"memo-hot population", func(s int64) any { return popKeys(memoHotJobs(s)) }},
		{"memo-hot requests", func(s int64) any { return memoHotOps(s, 5000) }},
		{"memo-hot arrivals", func(s int64) any { return arrivals(s, 1000, 6) }},
		{"sweep-churn", func(s int64) any { w, sw, f := churnSweeps(s, 100); return []any{w, sw, f} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !reflect.DeepEqual(c.gen(7), c.gen(7)) {
				t.Error("seed 7 gave two different input sequences")
			}
			if reflect.DeepEqual(c.gen(7), c.gen(8)) {
				t.Error("seeds 7 and 8 gave the same input sequence")
			}
		})
	}
}

func TestSimColdNeverRepeatsAKey(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range simColdKeys(3, 20000) {
		if seen[k] {
			t.Fatalf("key %s repeats", k)
		}
		seen[k] = true
	}
	// Set-up jobs sit apart from the timed ones.
	g := newSimColdGen(3 ^ 0x3a73)
	for i := 0; i < simColdRound; i++ {
		req := g.next()
		req.Pattern.Start += simColdWarmStart
		if seen[req.Key()] {
			t.Fatalf("set-up key %s is also a timed key", req.Key())
		}
	}
}

func TestSimColdJobsFitTheService(t *testing.T) {
	g := newSimColdGen(5)
	analytic := 0
	for i := 0; i < 4*simColdRound; i++ {
		req := g.next()
		if err := req.Validate(server.DefaultLimits()); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		refs := req.Pattern.RefCount() * req.Normalize().Passes
		if _, ok := analyticStride(req); ok {
			analytic++
			continue
		}
		if refs < 16<<10 || refs > 128<<10 {
			t.Errorf("job %d has %d references, want 16Ki..128Ki", i, refs)
		}
	}
	if analytic != 4 {
		t.Errorf("%d analytic-sized jobs in 4 rounds, want 4", analytic)
	}
}

func TestMemoHotRequestsStayInThePopulation(t *testing.T) {
	cond := 0
	ops := memoHotOps(11, 20000)
	for _, op := range ops {
		if op.job < 0 || op.job >= memoHotPopulation {
			t.Fatalf("request for job %d outside the population", op.job)
		}
		if op.cond {
			cond++
		}
	}
	if share := float64(cond) / float64(len(ops)); share < 0.23 || share > 0.27 {
		t.Errorf("conditional share %.3f, want about 0.25", share)
	}
	seen := map[string]bool{}
	for _, k := range popKeys(memoHotJobs(11)) {
		if seen[k] {
			t.Fatalf("population key %s repeats", k)
		}
		seen[k] = true
	}
}

// TestMemoHotPopulationWarmedInSetup starts a cluster, runs memo-hot's
// set-up, and then finds every population job memoized and known to the
// conditional client.
func TestMemoHotPopulationWarmedInSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a cluster")
	}
	c, err := startCluster(t.TempDir(), clusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	cl := newClients(c.coordURL, 2)
	defer cl.close()
	w := newMemoHot(1)
	if _, err := w.warm(cl); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, j := range w.pop {
		var memoized, notModified bool
		if j.Simulate != nil {
			r, err := cl.cond.Simulate(ctx, *j.Simulate)
			if err != nil {
				t.Fatal(err)
			}
			memoized, notModified = r.Memoized, r.NotModified
		} else {
			r, err := cl.cond.Model(ctx, *j.Model)
			if err != nil {
				t.Fatal(err)
			}
			memoized, notModified = r.Memoized, r.NotModified
		}
		if !memoized || !notModified {
			t.Fatalf("job %d after set-up: memoized=%v notModified=%v", i, memoized, notModified)
		}
	}
}

func TestSweepChurnSplit(t *testing.T) {
	warm, sweeps, fresh := churnSweeps(5, 300)
	seen := map[string]int{} // key → sweep that introduced it; -1 for set-up
	for _, k := range warm {
		seen[k] = -1
	}
	for s, keys := range sweeps {
		if len(keys) < 32 || len(keys) > 64 {
			t.Fatalf("sweep %d has %d jobs", s, len(keys))
		}
		if fresh[s] != len(keys)/2 {
			t.Fatalf("sweep %d has %d new jobs of %d", s, fresh[s], len(keys))
		}
		newHere := 0
		for _, k := range keys {
			from, ok := seen[k]
			switch {
			case !ok:
				newHere++
			case from == s:
				t.Fatalf("sweep %d repeats its own new job %s", s, k)
			case from >= 0 && from > s-churnLag:
				t.Fatalf("sweep %d repeats %s from sweep %d, fewer than %d sweeps back", s, k, from, churnLag)
			}
		}
		if newHere != fresh[s] {
			t.Fatalf("sweep %d: %d keys never seen before, want %d", s, newHere, fresh[s])
		}
		for _, k := range keys {
			if _, ok := seen[k]; !ok {
				seen[k] = s
			}
		}
	}
}
