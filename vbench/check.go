package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sync"

	"primecache/internal/cache"
	"primecache/internal/oracle"
	"primecache/internal/server"
	"primecache/internal/trace"
	"primecache/internal/vcm"
)

// analyticRefs is the job size from which the service answers a strided
// sweep on a prime- or direct-mapped cache with the closed form.
const analyticRefs = 1 << 22

// analyticStride returns the stride of a job the service answers with
// the closed form, and false for every other job.
func analyticStride(req server.SimulateRequest) (int64, bool) {
	req = req.Normalize()
	p := req.Pattern
	if req.Cache.Kind != "prime" && req.Cache.Kind != "direct" {
		return 0, false
	}
	if int64(p.N)*int64(req.Passes) < analyticRefs {
		return 0, false
	}
	switch p.Name {
	case "strided":
		return p.Stride, true
	case "diagonal":
		return int64(p.LD) + 1, true
	}
	return 0, false
}

// expectSimulate computes in-process, through the public library, the
// statistics the service must answer for req: the closed form for the
// sweeps it answers analytically, a trace replay through a freshly built
// cache for everything else.
func expectSimulate(req server.SimulateRequest) (cache.Stats, error) {
	req = req.Normalize()
	if stride, ok := analyticStride(req); ok {
		p := req.Pattern
		if st, ok := cache.StridedSweepStats(req.Cache, p.Start, stride, p.N, req.Passes, p.Stream); ok {
			return st, nil
		}
	}
	sim, err := req.Cache.Build()
	if err != nil {
		return cache.Stats{}, err
	}
	return trace.ReplayPattern(sim, req.Pattern, req.Passes)
}

// modelFigures are the model answer's headline numbers, recomputed
// in-process from the vcm package.
type modelFigures struct{ mm, direct, prime, speedup float64 }

func expectModel(req server.ModelRequest) modelFigures {
	req = req.Normalize()
	mach := vcm.DefaultMachine(req.Banks, req.Tm)
	work := vcm.VCM{B: req.B, R: req.R, Pds: *req.Pds, P1S1: *req.P1, P1S2: *req.P1S2}
	f := modelFigures{
		mm:     vcm.CyclesPerResultMM(mach, work, req.N),
		direct: vcm.CyclesPerResultCC(vcm.DirectGeom(req.C), mach, work, req.N),
		prime:  vcm.CyclesPerResultCC(vcm.PrimeGeom(req.C), mach, work, req.N),
	}
	if f.prime > 0 {
		f.speedup = f.direct / f.prime
	}
	return f
}

func answeredModel(r *server.ModelResponse) modelFigures {
	return modelFigures{r.MM.CyclesPerResult, r.Direct.CyclesPerResult, r.Prime.CyclesPerResult, r.Speedup}
}

// expected memoizes in-process answers by job key and computes a batch
// of them in parallel.
type expected struct {
	mu    sync.Mutex
	stats map[string]cache.Stats
}

func newExpected() *expected { return &expected{stats: map[string]cache.Stats{}} }

// fill computes the answers of every job in reqs not yet known, on
// workers goroutines.
func (e *expected) fill(reqs []server.SimulateRequest, workers int) error {
	todo := make(chan server.SimulateRequest)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range todo {
				st, err := expectSimulate(req)
				if err != nil {
					errs <- fmt.Errorf("in-process %s: %w", req.Key(), err)
					for range todo {
					}
					return
				}
				e.mu.Lock()
				e.stats[req.Key()] = st
				e.mu.Unlock()
			}
		}()
	}
	queued := map[string]bool{}
	for _, req := range reqs {
		k := req.Key()
		e.mu.Lock()
		_, known := e.stats[k]
		e.mu.Unlock()
		if known || queued[k] {
			continue
		}
		queued[k] = true
		todo <- req
	}
	close(todo)
	wg.Wait()
	close(errs)
	return <-errs
}

// matches reports whether the service's answer to req carries the
// in-process statistics and describes the same job.
func (e *expected) matches(req server.SimulateRequest, got *server.SimulateResponse) bool {
	req = req.Normalize()
	want, ok := e.stats[req.Key()]
	return ok && got != nil && got.Stats == want &&
		got.Pattern == req.Pattern.String() && got.Spec == req.Cache.String() && got.Passes == req.Passes
}

// oracleSample is how many answered replay jobs per run are also run
// through oracle.Diff against the reference simulator.
const oracleSample = 2

// oracleMaxRefs bounds the jobs the oracle sample draws from; the
// reference simulator is slow and the trace is materialised.
const oracleMaxRefs = 64 << 10

// oracleCheck runs a seeded sample of the answered jobs through
// oracle.Diff: the fast simulator must agree with the reference access
// for access, and the answer must carry the reference's stats. It
// returns the indices of the sampled jobs that fail; answers[i] is nil
// for a job that was not answered.
func oracleCheck(seed int64, reqs []server.SimulateRequest, answers []*server.SimulateResponse) (map[int]bool, error) {
	var idx []int
	for i, req := range reqs {
		req = req.Normalize()
		if answers[i] != nil && req.Pattern.RefCount()*req.Passes <= oracleMaxRefs {
			idx = append(idx, i)
		}
	}
	r := rand.New(rand.NewSource(seed ^ 0x0dac1e))
	r.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	bad := map[int]bool{}
	for _, i := range idx[:min(oracleSample, len(idx))] {
		req := reqs[i].Normalize()
		pass, err := req.Pattern.Build()
		if err != nil {
			return nil, err
		}
		tr := trace.Repeat(pass, req.Passes)
		d, err := oracle.Diff(req.Cache, tr)
		if err != nil {
			return nil, err
		}
		ref, err := oracle.NewRefSim(req.Cache)
		if err != nil {
			return nil, err
		}
		if d != nil || answers[i].Stats != trace.Replay(ref, tr) {
			fmt.Fprintf(os.Stderr, "vbench: %s disagrees with the reference simulator\n", req.Key())
			bad[i] = true
		}
	}
	return bad, nil
}

// statsDigest is a 32-bit FNV-1a hash over a sequence of statistics;
// it fits a JSON number exactly.
func statsDigest(all []cache.Stats) uint32 {
	h := fnv.New32a()
	for _, s := range all {
		fmt.Fprintf(h, "%+v;", s)
	}
	return h.Sum32()
}
