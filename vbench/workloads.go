package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"primecache/internal/obs"
	"primecache/internal/server"
)

// workload is one of the benchmark's traffic mixes.
type workload struct {
	name string
	// cluster shapes the cluster the workload runs against.
	cluster clusterConfig
	// instance builds the workload's generators for one seed.
	instance func(seed int64) instance
	// tail is the latency percentile lat_tail_ms reports: the highest
	// of p90, p99 and p99.9 that leaves at least tailBeyond samples
	// beyond it at the request count a run of ten seconds makes, except
	// on memo-hot. There p99 of the closed loop, a few milliseconds, is
	// set by how often the host steals the CPU, and its quartile spread
	// over seeds reached half its median; p95 is still a tail (four to
	// five times the median) and spreads about as much as the median.
	tail float64
}

// tailBeyond is how many samples lat_tail_ms's percentile must leave
// beyond it.
const tailBeyond = 10

var workloads = []workload{
	{name: "sim-cold", tail: 99, instance: func(seed int64) instance { return newSimCold(seed) }},
	{name: "memo-hot", tail: 95, instance: func(seed int64) instance { return newMemoHot(seed) }},
	{name: "sweep-churn", tail: 90, instance: func(seed int64) instance { return newSweepChurn(seed) },
		cluster: clusterConfig{memoEntries: 128, segmentBytes: 256 << 10, maxBytes: 4 << 20}},
}

// instance is one seeded run of a workload against one cluster.
type instance interface {
	// warm sends the set-up traffic to a fresh cluster and returns the
	// references the service simulated for it.
	warm(cl *clients) (uint64, error)
	// drive runs the timed phase for d with workers senders; tr, when
	// non-nil, records a span around every request. Calling it again
	// runs the phase again, and verify, sent and keys then see only the
	// latest run's requests.
	drive(cl *clients, tr *obs.Tracer, workers int, d time.Duration) phase
	// verify checks every answer of the phase and returns how many
	// requests failed: errors and wrong answers alike.
	verify(p phase, workers int, seed int64) (int, error)
	// sample returns the workload's first jobs, the inputs of the
	// per-layer measurements.
	sample() []server.SweepJob
	// sent returns the first n request bodies the timed phase sent.
	sent(n int) []any
	// keys returns the memo key of every job the timed phase sent, in
	// order.
	keys() []string
}

// phase is what the timed phase of one instance produced.
type phase struct {
	// open are the open-loop requests, closed the closed-loop ones;
	// a workload runs one or both.
	open, closed []outcome
	// openTime and closedTime are how long each loop ran.
	openTime, closedTime time.Duration
	res                  resources
	// reruns is how many earlier runs of the phase were thrown away
	// because the open-loop generator fell behind.
	reruns int
}

// warmSweep is the batch size of set-up sweeps.
const warmSweep = 64

// sendWarm computes jobs through the coordinator in sweeps and returns
// the answers in input order and the references simulated for them.
func sendWarm(cl *clients, jobs []server.SweepJob) ([]server.SweepResult, uint64, error) {
	var all []server.SweepResult
	for lo := 0; lo < len(jobs); lo += warmSweep {
		hi := min(lo+warmSweep, len(jobs))
		res, err := cl.plain.Sweep(context.Background(), server.SweepRequest{Jobs: jobs[lo:hi]})
		if err != nil {
			return nil, 0, fmt.Errorf("set-up sweep: %w", err)
		}
		for _, r := range res {
			if r.Error != "" {
				return nil, 0, fmt.Errorf("set-up job %d: %s", lo+r.Index, r.Error)
			}
		}
		all = append(all, res...)
	}
	_, _, refs := answered([]outcome{{sweep: all}})
	return all, refs, nil
}

// answeredRefs returns the references of an answer the service
// simulated: zero for memoized and closed-form answers.
func answeredRefs(r *server.SimulateResponse, memoized bool) uint64 {
	if r == nil || memoized || r.Analytic {
		return 0
	}
	return uint64(r.RefsPerPass) * uint64(r.Passes)
}

// simCold sends /v1/simulate jobs whose keys never repeat.
type simCold struct {
	seed int64
	gen  *simColdGen
	reqs []server.SimulateRequest // by request index
}

func newSimCold(seed int64) *simCold { return &simCold{seed: seed, gen: newSimColdGen(seed)} }

// simColdWarmStart moves the set-up jobs' addresses far from the timed
// jobs', so set-up never computes a key the timed phase sends.
const simColdWarmStart = 1 << 52

func (w *simCold) warm(cl *clients) (uint64, error) {
	g := newSimColdGen(w.seed ^ 0x3a73)
	jobs := make([]server.SweepJob, simColdRound)
	for i := range jobs {
		req := g.next()
		req.Pattern.Start += simColdWarmStart
		jobs[i] = server.SweepJob{Simulate: &req}
	}
	_, refs, err := sendWarm(cl, jobs)
	return refs, err
}

func (w *simCold) drive(cl *clients, tr *obs.Tracer, workers int, d time.Duration) phase {
	var p phase
	w.reqs = w.reqs[:0]
	p.res = measured(func() {
		p.closed = closedLoop(workers, d, func(int) request {
			req := w.gen.next()
			w.reqs = append(w.reqs, req)
			return func() outcome {
				return call(tr, "bench.simulate", func(ctx context.Context) outcome {
					r, err := cl.plain.Simulate(ctx, req)
					return outcome{sim: r, err: err}
				})
			}
		})
	})
	p.closedTime = p.res.elapsed
	return p
}

func (w *simCold) verify(p phase, workers int, seed int64) (int, error) {
	reqs := w.reqs[:len(p.closed)]
	answers := make([]*server.SimulateResponse, len(reqs))
	for i, o := range p.closed {
		answers[i] = simAnswer(o)
	}
	bad, err := badAnswers(reqs, answers, workers, seed)
	return len(bad), err
}

// badAnswers returns the indices of the answers that are missing or
// disagree with the in-process run or the oracle sample.
func badAnswers(reqs []server.SimulateRequest, answers []*server.SimulateResponse, workers int, seed int64) (map[int]bool, error) {
	exp := newExpected()
	var answered []server.SimulateRequest
	for i, a := range answers {
		if a != nil {
			answered = append(answered, reqs[i])
		}
	}
	if err := exp.fill(answered, workers); err != nil {
		return nil, err
	}
	bad, err := oracleCheck(seed, reqs, answers)
	if err != nil {
		return nil, err
	}
	for i, a := range answers {
		if !exp.matches(reqs[i], a) {
			bad[i] = true
		}
	}
	return bad, nil
}

func (w *simCold) sample() []server.SweepJob {
	g := newSimColdGen(w.seed)
	jobs := make([]server.SweepJob, 2*simColdRound)
	for i := range jobs {
		req := g.next()
		jobs[i] = server.SweepJob{Simulate: &req}
	}
	return jobs
}

func (w *simCold) sent(n int) []any {
	var out []any
	for _, r := range w.reqs[:min(n, len(w.reqs))] {
		out = append(out, r)
	}
	return out
}

func (w *simCold) keys() []string {
	var out []string
	for _, r := range w.reqs {
		out = append(out, r.Key())
	}
	return out
}

func simAnswer(o outcome) *server.SimulateResponse {
	if o.sim == nil {
		return nil
	}
	return &o.sim.SimulateResponse
}

// memoHot sends a Zipf draw over a population computed during set-up,
// first open loop at a fixed rate, then closed loop.
type memoHot struct {
	seed   int64
	pop    []server.SweepJob
	gen    *memoHotGen
	ops    []memoHotOp          // by request index: open loop first, then closed
	answer []server.SweepResult // set-up answer per population job
}

// memoHotRate is the open loop's arrival rate, requests per second:
// well under the cluster's capacity on two cores, so the loop measures
// latency at a steady load rather than a growing backlog.
const memoHotRate = 400

// memoHotOpenShare is the share of the timed phase given to the open
// loop; the closed loop, which the end-to-end metrics are taken from,
// takes the rest.
const memoHotOpenShare = 0.4

func newMemoHot(seed int64) *memoHot {
	return &memoHot{seed: seed, pop: memoHotJobs(seed), gen: newMemoHotGen(seed)}
}

// warm computes the whole population, then sends every job once through
// the conditional client so it holds an ETag for each.
func (w *memoHot) warm(cl *clients) (uint64, error) {
	res, refs, err := sendWarm(cl, w.pop)
	if err != nil {
		return 0, err
	}
	w.answer = res
	// The conditional client's requests are memo hits; send them from
	// as many goroutines as the load generator has connections.
	errs := make(chan error, len(w.pop))
	todo := make(chan server.SweepJob, len(w.pop))
	for _, j := range w.pop {
		todo <- j
	}
	close(todo)
	var wg sync.WaitGroup
	for i := 0; i < cl.conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for j := range todo {
				var err error
				if j.Simulate != nil {
					_, err = cl.cond.Simulate(ctx, *j.Simulate)
				} else {
					_, err = cl.cond.Model(ctx, *j.Model)
				}
				if err != nil {
					errs <- fmt.Errorf("set-up conditional request: %w", err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return refs, <-errs
}

func (w *memoHot) send(cl *clients, tr *obs.Tracer, op memoHotOp) request {
	job := w.pop[op.job]
	c := cl.plain
	if op.cond {
		c = cl.cond
	}
	return func() outcome {
		if job.Simulate != nil {
			return call(tr, "bench.simulate", func(ctx context.Context) outcome {
				r, err := c.Simulate(ctx, *job.Simulate)
				return outcome{sim: r, err: err}
			})
		}
		return call(tr, "bench.model", func(ctx context.Context) outcome {
			r, err := c.Model(ctx, *job.Model)
			return outcome{model: r, err: err}
		})
	}
}

func (w *memoHot) drive(cl *clients, tr *obs.Tracer, workers int, d time.Duration) phase {
	openTime := time.Duration(float64(d) * memoHotOpenShare)
	at := arrivals(w.seed, int(memoHotRate*openTime.Seconds()), openTime.Seconds())
	w.ops = w.ops[:0]
	for range at {
		w.ops = append(w.ops, w.gen.next())
	}
	var p phase
	p.res = measured(func() {
		start := time.Now()
		p.open = openLoop(workers, at, func(i int) request { return w.send(cl, tr, w.ops[i]) })
		p.openTime = time.Since(start)
		start = time.Now()
		p.closed = closedLoop(workers, d-openTime, func(int) request {
			op := w.gen.next()
			w.ops = append(w.ops, op)
			return w.send(cl, tr, op)
		})
		p.closedTime = time.Since(start)
	})
	return p
}

func (w *memoHot) verify(p phase, workers int, seed int64) (int, error) {
	// Every set-up answer is checked in-process, and every timed answer
	// must equal its job's set-up answer; a job whose set-up answer is
	// wrong fails every timed request for it.
	var reqs []server.SimulateRequest
	var answers []*server.SimulateResponse
	var jobOf []int
	wrong := map[int]bool{}
	for i, j := range w.pop {
		if j.Simulate != nil {
			reqs = append(reqs, *j.Simulate)
			answers = append(answers, w.answer[i].Simulate)
			jobOf = append(jobOf, i)
		} else if a := w.answer[i].Model; a == nil || answeredModel(a) != expectModel(*j.Model) {
			wrong[i] = true
		}
	}
	bad, err := badAnswers(reqs, answers, workers, seed)
	if err != nil {
		return 0, err
	}
	for i := range bad {
		wrong[jobOf[i]] = true
	}
	failed := 0
	for i, o := range append(append([]outcome(nil), p.open...), p.closed...) {
		job := w.ops[i].job
		if o.err != nil || wrong[job] || !w.sameAsSetup(job, o) {
			failed++
		}
	}
	return failed, nil
}

func (w *memoHot) sameAsSetup(job int, o outcome) bool {
	a := w.answer[job]
	switch {
	case o.sim != nil && a.Simulate != nil:
		got, want := o.sim.SimulateResponse, *a.Simulate
		return got.Stats == want.Stats && got.Spec == want.Spec && got.Pattern == want.Pattern && got.Passes == want.Passes
	case o.model != nil && a.Model != nil:
		return answeredModel(&o.model.ModelResponse) == answeredModel(a.Model)
	}
	return false
}

func (w *memoHot) sample() []server.SweepJob { return w.pop[:128] }

func (w *memoHot) sent(n int) []any {
	var out []any
	for _, op := range w.ops[:min(n, len(w.ops))] {
		if j := w.pop[op.job]; j.Simulate != nil {
			out = append(out, *j.Simulate)
		} else {
			out = append(out, *j.Model)
		}
	}
	return out
}

func (w *memoHot) keys() []string {
	var out []string
	for _, op := range w.ops {
		out = append(out, w.pop[op.job].Key())
	}
	return out
}

// sweepChurn sends /v1/sweep batches, half new jobs and half repeats,
// to backends with a small memo and a persist store.
type sweepChurn struct {
	gen    *sweepChurnGen
	warmed []server.SweepJob
	sweeps []server.SweepRequest
}

func newSweepChurn(seed int64) *sweepChurn {
	g := newSweepChurnGen(seed)
	return &sweepChurn{gen: g, warmed: g.warm()}
}

func (w *sweepChurn) warm(cl *clients) (uint64, error) {
	_, refs, err := sendWarm(cl, w.warmed)
	return refs, err
}

func (w *sweepChurn) drive(cl *clients, tr *obs.Tracer, workers int, d time.Duration) phase {
	var p phase
	w.sweeps = w.sweeps[:0]
	p.res = measured(func() {
		p.closed = closedLoop(workers, d, func(int) request {
			sw, _ := w.gen.next()
			w.sweeps = append(w.sweeps, sw)
			return func() outcome {
				return call(tr, "bench.sweep", func(ctx context.Context) outcome {
					r, err := cl.plain.Sweep(ctx, sw)
					return outcome{sweep: r, err: err}
				})
			}
		})
	})
	p.closedTime = p.res.elapsed
	return p
}

func (w *sweepChurn) verify(p phase, workers int, seed int64) (int, error) {
	// Flatten every job of every sweep; a sweep fails when any of its
	// answers is missing, out of order or wrong.
	var reqs []server.SimulateRequest
	var answers []*server.SimulateResponse
	var sweepOf []int
	failedSweep := map[int]bool{}
	for i, o := range p.closed {
		jobs := w.sweeps[i].Jobs
		if o.err != nil || len(o.sweep) != len(jobs) {
			failedSweep[i] = true
			continue
		}
		for k, r := range o.sweep {
			if r.Index != k || r.Error != "" {
				failedSweep[i] = true
			}
			reqs = append(reqs, *jobs[k].Simulate)
			answers = append(answers, r.Simulate)
			sweepOf = append(sweepOf, i)
		}
	}
	bad, err := badAnswers(reqs, answers, workers, seed)
	if err != nil {
		return 0, err
	}
	for i := range bad {
		failedSweep[sweepOf[i]] = true
	}
	return len(failedSweep), nil
}

func (w *sweepChurn) sample() []server.SweepJob { return w.warmed[:128] }

func (w *sweepChurn) sent(n int) []any {
	var out []any
	for _, sw := range w.sweeps[:min(n, len(w.sweeps))] {
		out = append(out, sw)
	}
	return out
}

func (w *sweepChurn) keys() []string {
	var out []string
	for _, sw := range w.sweeps {
		for _, j := range sw.Jobs {
			out = append(out, j.Key())
		}
	}
	return out
}
