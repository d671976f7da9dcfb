package main

import (
	"math/rand"

	"primecache/internal/cache"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// The three workload generators. Each is a pure function of the seed:
// the same seed yields the same request sequence on any machine, and the
// program under test sees only the generated requests.

// geometry8k are the five organisations sim-cold and memo-hot spread
// their jobs over, all at the default 8192-line size.
var geometry8k = []cache.Spec{
	{Kind: "prime", C: 13},
	{Kind: "direct", Lines: 8192},
	{Kind: "assoc", Lines: 8192, Ways: 4},
	{Kind: "skewed", Lines: 8192},
	{Kind: "victim", Lines: 8192},
}

// smallGeometry are sweep-churn's organisations: small caches, so a job
// is cheap to simulate and the memo, persist and scatter layers carry
// most of the cost.
var smallGeometry = []cache.Spec{
	{Kind: "prime", C: 7},
	{Kind: "direct", Lines: 256},
	{Kind: "assoc", Lines: 256, Ways: 4},
	{Kind: "skewed", Lines: 256},
	{Kind: "victim", Lines: 256},
}

// patternNames are the five generators of trace.Pattern. strided and
// diagonal take the vector path (core) on prime, direct and assoc
// caches; the rest take the replay path (trace + cache).
var patternNames = []string{"strided", "diagonal", "fft", "subblock", "rowcol"}

// shape is a job's size: n references per pass, passes passes.
type shape struct{ n, passes int }

// coldShapes are sim-cold's job sizes, 16Ki to 128Ki references per job,
// with per-pass footprints from half to eight times the 8192-line cache.
var coldShapes = []shape{{4 << 10, 4}, {8 << 10, 4}, {16 << 10, 2}, {32 << 10, 2}, {64 << 10, 2}}

// churnShapes are sweep-churn's job sizes, 2Ki to 8Ki references.
var churnShapes = []shape{{1 << 10, 2}, {2 << 10, 2}, {2 << 10, 3}, {4 << 10, 2}}

// pick returns a uniformly chosen element of vals.
func pick[T any](r *rand.Rand, vals []T) T { return vals[r.Intn(len(vals))] }

// makePattern builds a pattern of the named kind with exactly n
// references per pass, starting at word start, drawing its stride,
// leading dimension or block shape from r.
func makePattern(r *rand.Rand, name string, n int, start uint64) trace.Pattern {
	p := trace.Pattern{Name: name, Start: start, N: n, Stream: 1}
	switch name {
	case "strided":
		p.Stride = pick(r, []int64{1, 3, 7, 64, 511, 512, 1024, 4096, 8191, 8192, 8193})
	case "diagonal":
		p.LD = pick(r, []int{1000, 4095, 8191, 8192, 10000})
	case "fft":
		p.B2 = pick(r, []int{16, 32, 64, 128})
	case "subblock":
		p.N = 0
		p.B2 = pick(r, []int{16, 32, 64})
		p.B1 = n / p.B2
		p.LD = p.B1*pick(r, []int{1, 2, 4}) + pick(r, []int{0, 1, 3})
	case "rowcol":
		p.LD = pick(r, []int{n / 2, n/2 + 1, n, 8192 + 7})
		if p.LD < n/2 {
			p.LD = n / 2
		}
	}
	return p
}

// simColdRound is the number of jobs in one sim-cold round: every
// organisation × pattern pair once, plus one analytic-sized job.
const simColdRound = 5*5 + 1

// simColdGen yields sim-cold's /v1/simulate jobs. The sequence runs in
// rounds; each round holds every organisation × pattern pair once, in a
// seeded order, with the sizes laid out as a Latin square so every
// round carries the same mix of sizes, plus one strided job of at least
// 4Mi references on prime or direct, which the server answers with the
// closed form. The mix is therefore the same for every seed, and only
// the parameters differ. Start addresses grow with the job index, so no
// key ever repeats.
type simColdGen struct {
	r     *rand.Rand
	i     int
	round []int
}

func newSimColdGen(seed int64) *simColdGen {
	return &simColdGen{r: rand.New(rand.NewSource(seed))}
}

func (g *simColdGen) next() server.SimulateRequest {
	slot := g.i % simColdRound
	if slot == 0 {
		g.round = g.r.Perm(simColdRound)
	}
	roundNo := g.i / simColdRound
	start := uint64(g.i)*1_048_573 + uint64(g.r.Intn(4096))
	g.i++
	combo := g.round[slot]
	if combo == simColdRound-1 {
		return server.SimulateRequest{
			Cache: geometry8k[roundNo%2], // prime or direct
			Pattern: trace.Pattern{Name: "strided", Start: start, N: 2<<20 + g.r.Intn(4096),
				Stride: pick(g.r, []int64{1, 3, 9, 8191, 8193}), Stream: 1},
			Passes: 2,
		}
	}
	org, pat := combo/5, combo%5
	sh := coldShapes[(org+pat+roundNo)%len(coldShapes)]
	return server.SimulateRequest{
		Cache:   geometry8k[org],
		Pattern: makePattern(g.r, patternNames[pat], sh.n, start),
		Passes:  sh.passes,
	}
}

// memoHotPopulation is the number of distinct memo-hot jobs; every one
// is computed during set-up.
const memoHotPopulation = 1536

// memoHotJobs returns memo-hot's population: small jobs on the 8192-line
// organisations, one in eight a /v1/model evaluation. A job's kind,
// organisation, pattern and size follow from its index, and requests
// draw jobs by Zipf rank in index order, so the most requested jobs are
// of the same kinds for every seed; the seed sets their parameters.
func memoHotJobs(seed int64) []server.SweepJob {
	r := rand.New(rand.NewSource(seed))
	shapes := []shape{{512, 2}, {1024, 2}, {2048, 1}, {4096, 1}}
	jobs := make([]server.SweepJob, memoHotPopulation)
	for j := range jobs {
		if j%8 == 7 {
			p1 := pick(r, []float64{0, 0.25, 0.5, 1})
			jobs[j] = server.SweepJob{Model: &server.ModelRequest{
				Banks: pick(r, []int{16, 32, 64, 128}),
				Tm:    pick(r, []int{16, 32, 64}),
				B:     pick(r, []int{512, 1024, 4096, 8192}),
				P1:    &p1,
				N:     (j + 1) << 10,
				C:     pick(r, []uint{7, 13}),
			}}
			continue
		}
		sh := shapes[(j/35)%len(shapes)]
		jobs[j] = server.SweepJob{Simulate: &server.SimulateRequest{
			Cache:   geometry8k[j%5],
			Pattern: makePattern(r, patternNames[(j/5)%5], sh.n, uint64(j)*65_537+uint64(r.Intn(1024))),
			Passes:  sh.passes,
		}}
	}
	return jobs
}

// memoHotOp is one memo-hot request: a population index and whether it
// goes through the conditional (ETag-caching) client.
type memoHotOp struct {
	job  int
	cond bool
}

// memoHotGen draws memo-hot requests: a Zipf choice of rank over the
// population, one in four sent conditionally.
type memoHotGen struct {
	r    *rand.Rand
	zipf *rand.Zipf
}

func newMemoHotGen(seed int64) *memoHotGen {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	return &memoHotGen{r: r, zipf: rand.NewZipf(r, 1.1, 1, memoHotPopulation-1)}
}

func (g *memoHotGen) next() memoHotOp {
	return memoHotOp{job: int(g.zipf.Uint64()), cond: g.r.Intn(4) == 0}
}

// arrivals returns the send offsets, in seconds from the start of the
// open loop, of n Poisson arrivals spread over d seconds: exponential
// gaps rescaled so the last lands at d, which is a Poisson process
// conditioned on its count.
func arrivals(seed int64, n int, d float64) []float64 {
	r := rand.New(rand.NewSource(seed ^ 0xa77))
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += r.ExpFloat64()
		at[i] = t
	}
	t += r.ExpFloat64()
	for i := range at {
		at[i] *= d / t
	}
	return at
}

// churnWarmJobs is the number of jobs sweep-churn computes during
// set-up; they are the first jobs later sweeps may repeat.
const churnWarmJobs = 256

// churnLag is how many sweeps back a repeat must reach: a repeated job
// was generated at least this many sweeps earlier, so with a handful of
// concurrent clients it has almost always been answered already.
const churnLag = 8

// churnWindow bounds how far back repeats reach, so the share of
// repeats still held by the memo or the persist tier stays the same
// throughout a run.
const churnWindow = 2048

// sweepChurnGen yields sweep-churn's batches. A sweep holds 32 to 64
// small jobs; half of them (rounded down) are new, the rest repeat jobs
// generated earlier, in set-up or at least churnLag sweeps before.
type sweepChurnGen struct {
	r      *rand.Rand
	seen   []server.SweepJob // every job generated so far, in order
	marks  []int             // len(seen) after each sweep
	newJob int
}

func newSweepChurnGen(seed int64) *sweepChurnGen {
	return &sweepChurnGen{r: rand.New(rand.NewSource(seed ^ 0xc407))}
}

func (g *sweepChurnGen) fresh() server.SweepJob {
	sh := pick(g.r, churnShapes)
	start := uint64(g.newJob)*65_537 + uint64(g.r.Intn(1024))
	g.newJob++
	return server.SweepJob{Simulate: &server.SimulateRequest{
		Cache:   pick(g.r, smallGeometry),
		Pattern: makePattern(g.r, pick(g.r, patternNames), sh.n, start),
		Passes:  sh.passes,
	}}
}

// warm returns the set-up jobs.
func (g *sweepChurnGen) warm() []server.SweepJob {
	for i := 0; i < churnWarmJobs; i++ {
		g.seen = append(g.seen, g.fresh())
	}
	return append([]server.SweepJob(nil), g.seen...)
}

// next returns the next sweep and how many of its jobs are new. New
// and repeated jobs are interleaved in a seeded order.
func (g *sweepChurnGen) next() (server.SweepRequest, int) {
	m := 32 + g.r.Intn(33)
	nNew := m / 2
	hi := churnWarmJobs
	if k := len(g.marks) - churnLag; k >= 0 {
		hi = g.marks[k]
	}
	lo := hi - churnWindow
	if lo < 0 {
		lo = 0
	}
	jobs := make([]server.SweepJob, 0, m)
	for i := 0; i < m-nNew; i++ {
		jobs = append(jobs, g.seen[lo+g.r.Intn(hi-lo)])
	}
	for i := 0; i < nNew; i++ {
		j := g.fresh()
		g.seen = append(g.seen, j)
		jobs = append(jobs, j)
	}
	g.r.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	g.marks = append(g.marks, len(g.seen))
	return server.SweepRequest{Jobs: jobs}, nNew
}
