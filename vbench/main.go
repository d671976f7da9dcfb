// Command vbench is the end-to-end, layer-by-layer benchmark of the
// vcached cluster. It starts an in-process coordinator in front of three
// backends, drives it through the public client with one of three seeded
// workloads, checks every answer, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half, and the metrics are
// the per-layer ones. See README.md for the workloads and metrics.
//
// Usage:
//
//	vbench -workload sim-cold|memo-hot|sweep-churn -seed N -seconds S -trace 0|1 [-dir D]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"primecache/internal/obs"
)

// setups is how many times an end-to-end run builds and warms its
// cluster; setup_s reports the median.
const setups = 5

func main() {
	name := flag.String("workload", "", "workload: sim-cold, memo-hot or sweep-churn")
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for persist stores and span dumps")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: vbench -workload sim-cold|memo-hot|sweep-churn -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	r := runner{w: w, seed: *seed, d: time.Duration(*seconds * float64(time.Second)),
		dir: filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid())), workers: runtime.NumCPU()}
	defer os.RemoveAll(r.dir)
	var rep *report
	var err error
	if *traced == 1 {
		rep, err = r.traced(*dir)
	} else {
		rep, _, err = r.untraced(r.d, setups)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbench: %s: %v\n", w.name, err)
		os.RemoveAll(r.dir)
		os.Exit(1)
	}
	rep.write(os.Stdout)
}

// runner runs one workload for one seed.
type runner struct {
	w       *workload
	seed    int64
	d       time.Duration
	dir     string
	workers int
	n       int // clusters started so far, naming their directories
}

// ready is a warmed cluster and the instance that warmed it.
type ready struct {
	c    *benchCluster
	cl   *clients
	inst instance
}

func (rd ready) close() {
	rd.cl.close()
	rd.c.close()
}

// setup builds and warms a fresh cluster, timing the whole. It also
// returns the references the warm-up simulated per second.
func (r *runner) setup(traced bool) (ready, time.Duration, float64, error) {
	start := time.Now()
	cfg := r.w.cluster
	cfg.traced = traced
	r.n++
	c, err := startCluster(filepath.Join(r.dir, fmt.Sprintf("cluster-%d", r.n)), cfg)
	if err != nil {
		return ready{}, 0, 0, err
	}
	rd := ready{c: c, cl: newClients(c.coordURL, r.workers), inst: r.w.instance(r.seed)}
	warmStart := time.Now()
	refs, err := rd.inst.warm(rd.cl)
	if err != nil {
		rd.close()
		return ready{}, 0, 0, err
	}
	return rd, time.Since(start), float64(refs) / time.Since(warmStart).Seconds(), nil
}

// untraced is the end-to-end run: set up n times, then one timed phase
// of d with tracing off. It returns the phase with the report.
func (r *runner) untraced(d time.Duration, n int) (*report, phase, error) {
	var times, rates []float64
	var rd ready
	for i := 0; i < n; i++ {
		if i > 0 {
			rd.close()
		}
		var t time.Duration
		var rate float64
		var err error
		if rd, t, rate, err = r.setup(false); err != nil {
			return nil, phase{}, err
		}
		times, rates = append(times, t.Seconds()), append(rates, rate)
	}
	defer rd.close()
	p, kept := r.drive(rd, nil, d)
	failed, err := rd.inst.verify(p, r.workers, r.seed)
	if err != nil {
		return nil, phase{}, err
	}
	rep := &report{correct: kept, attempted: len(p.open) + len(p.closed), failed: failed}
	r.endToEnd(rep, p, median(times), median(rates), n)
	return rep, p, nil
}

// traced is the per-layer run: the end-to-end run for half the time on
// one set-up, then the other half on a fresh cluster with every tracer
// on, then the in-process layer measurements on the workload's own
// inputs.
func (r *runner) traced(dumpDir string) (*report, error) {
	half := r.d / 2
	plainRep, plain, err := r.untraced(half, 1)
	if err != nil {
		return nil, err
	}

	benchTracer := obs.NewTracer(obs.TracerOptions{Origin: "bench", Capacity: traceRing})
	rd, _, _, err := r.setup(true)
	if err != nil {
		return nil, err
	}
	defer rd.close()
	before, err := rd.c.tierStats(context.Background())
	if err != nil {
		return nil, err
	}
	coordBefore, err := rd.c.coordStats(context.Background())
	if err != nil {
		return nil, err
	}
	p, kept := r.drive(rd, benchTracer, half)
	failed, err := rd.inst.verify(p, r.workers, r.seed)
	if err != nil {
		return nil, err
	}
	rep := &report{correct: plainRep.correct && kept, attempted: plainRep.attempted + len(p.open) + len(p.closed),
		failed: plainRep.failed + failed}
	lm := layerRun{r: r, rd: rd, p: p, plain: plain, before: before, coordBefore: coordBefore,
		tracers: append([]*obs.Tracer{benchTracer}, rd.c.tracers...)}
	if err := lm.measure(rep); err != nil {
		return nil, err
	}
	if err := lm.dump(filepath.Join(dumpDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

// slice is the length of the slices a loop's rates, median latency and
// peak heap are taken over. Each metric is the median slice, so a burst
// of host contention confined to a few slices moves none of them.
const slice = time.Second

// slices returns how many slices a phase of d is cut into.
func slices(d time.Duration) int { return max(1, int(d/slice)) }

// sliced cuts the d after the first request was due into equal slices,
// puts each request in the slice of when it was due (byEnd false) or
// answered, and returns the median over slices of f(slice, length).
func sliced(outs []outcome, d time.Duration, byEnd bool, f func([]outcome, time.Duration) float64) float64 {
	if len(outs) == 0 {
		return 0
	}
	start := outs[0].due
	for _, o := range outs {
		if o.due.Before(start) {
			start = o.due
		}
	}
	k := slices(d)
	w := d / time.Duration(k)
	parts := make([][]outcome, k)
	for _, o := range outs {
		at := o.due
		if byEnd {
			at = o.due.Add(o.lat)
		}
		if i := int(at.Sub(start) / w); i >= 0 && i < k {
			parts[i] = append(parts[i], o)
		}
	}
	vals := make([]float64, k)
	for i, part := range parts {
		vals[i] = f(part, w)
	}
	return median(vals)
}

// tailLatency returns the pct-th percentile latency of outs: outs are
// cut, in the order they were due, into as many equal runs as leave at
// least tailBeyond samples beyond the percentile in each, and the
// median run's percentile is reported with the run count.
func tailLatency(outs []outcome, pct float64) (float64, int) {
	k := max(1, int(float64(len(outs))*(1-pct/100)/tailBeyond))
	byDue := append([]outcome(nil), outs...)
	sort.Slice(byDue, func(i, j int) bool { return byDue[i].due.Before(byDue[j].due) })
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = quantile(latencies(byDue[i*len(byDue)/k:(i+1)*len(byDue)/k]), pct/100)
	}
	return median(vals), k
}

// answered counts the requests and jobs answered without error, and the
// references the service simulated for them.
func answered(outs []outcome) (ops, jobs int, refs uint64) {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		ops++
		jobs += max(1, len(o.sweep))
		if o.sim != nil {
			refs += answeredRefs(&o.sim.SimulateResponse, o.sim.Memoized)
		}
		for _, r := range o.sweep {
			refs += answeredRefs(r.Simulate, r.Memoized)
		}
	}
	return ops, jobs, refs
}

func latencies(outs []outcome) []float64 {
	lats := make([]float64, len(outs))
	for i, o := range outs {
		lats[i] = ms(o.lat)
	}
	return lats
}

// endToEnd adds the end-to-end metrics of a timed phase, all taken
// from its closed loop. setup is the median of n set-up times and
// setupRate the median over them of the references simulated per second
// of warm-up, the simulation rate of a workload whose timed phase
// simulates nothing. A workload's open loop, if it has one, is reported
// in notes: its latency is too sensitive to bursts of host contention to
// gate on.
func (r *runner) endToEnd(rep *report, p phase, setup, setupRate float64, n int) {
	rate := func(pick func(ops, jobs int, refs uint64) float64) func([]outcome, time.Duration) float64 {
		return func(outs []outcome, d time.Duration) float64 {
			return pick(answered(outs)) / d.Seconds()
		}
	}
	opsOf := func(ops, _ int, _ uint64) float64 { return float64(ops) }
	jobsOf := func(_, jobs int, _ uint64) float64 { return float64(jobs) }
	refsOf := func(_, _ int, refs uint64) float64 { return float64(refs) }
	p50 := func(outs []outcome, _ time.Duration) float64 { return quantile(latencies(outs), 0.5) }
	capacity := sliced(p.closed, p.closedTime, true, rate(opsOf))
	simRate := setupRate
	if _, _, refs := answered(p.closed); refs > 0 {
		simRate = sliced(p.closed, p.closedTime, true, rate(refsOf))
	}
	pct := r.w.tail
	if beyond := float64(len(p.closed)) * (1 - pct/100); beyond < tailBeyond {
		rep.note("lat_tail_ms: only %.0f samples beyond p%g, fewer than %d", beyond, pct, tailBeyond)
	}
	tail, runs := tailLatency(p.closed, pct)
	if len(p.open) > 0 {
		o, _, _ := answered(p.open)
		openTail, _ := tailLatency(p.open, pct)
		rep.note("open loop: %d requests due over %v, %.1f/s answered, latency from due time p50 %.3f ms, p%g %.3f ms, reruns %d",
			len(p.open), p.openTime.Round(time.Millisecond), per(o, p.openTime),
			sliced(p.open, p.openTime, false, p50), pct, openTail, p.reruns)
	}
	all := len(p.open) + len(p.closed)
	rep.add("setup_s", "s", setup, "median of %d set-ups", n)
	rep.add("ops_per_s", "1/s", capacity, "")
	rep.add("jobs_per_s", "1/s", sliced(p.closed, p.closedTime, true, rate(jobsOf)), "")
	rep.add("sim_refs_per_s", "refs/s", simRate, "")
	rep.add("lat_p50_ms", "ms", sliced(p.closed, p.closedTime, false, p50), "median of %v slices, n=%d", slice, len(p.closed))
	rep.add("lat_tail_ms", "ms", tail, "p%g, median of %d runs of %d requests", pct, runs, len(p.closed)/runs)
	rep.add("capacity_rps", "1/s", capacity, "closed loop, %d clients", r.workers)
	rep.add("alloc_kb_per_op", "KiB", float64(p.res.allocs)/1024/float64(max(1, all)), "")
	rep.add("heap_peak_mb", "MiB", float64(p.res.heapPeak())/(1<<20), "median over %v slices of the slice's peak", slice)
}

// An open-loop generator that sent more than genLateShare of its
// requests more than genLateLimit past due did not offer the load it
// claims. Latency counts from the due time either way.
const (
	genLateLimit = 10 * time.Millisecond
	genLateShare = 0.01
)

// driveAttempts is how many times a run tries its timed phase before a
// generator that keeps falling behind makes the run invalid.
const driveAttempts = 3

// drive runs the timed phase on rd, again while its open-loop generator
// fell behind, and reports whether the generator kept its schedule in
// the phase it returns.
func (r *runner) drive(rd ready, tr *obs.Tracer, d time.Duration) (phase, bool) {
	for attempt := 1; ; attempt++ {
		runtime.GC()
		p := rd.inst.drive(rd.cl, tr, r.workers, d)
		p.reruns = attempt - 1
		if kept := generatorKept(p); kept || attempt == driveAttempts {
			return p, kept
		}
	}
}

// generatorKept reports whether the open-loop generator, if any, kept
// its schedule, and says on standard error when it did not.
func generatorKept(p phase) bool {
	late := 0
	for _, o := range p.open {
		if o.late > genLateLimit {
			late++
		}
	}
	if float64(late) <= genLateShare*float64(len(p.open)) {
		return true
	}
	fmt.Fprintf(os.Stderr, "vbench: open-loop generator sent %d of %d requests more than %v late (limit %g%%)\n",
		late, len(p.open), genLateLimit, 100*genLateShare)
	return false
}

func per(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// report is what a run prints: a table for people, then the JSON line.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []string
}

type metric struct {
	name, unit, note string
	value            float64
}

func (rep *report) add(name, unit string, v float64, note string, args ...any) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		rep.note("%s is not finite (%v): run invalid", name, v)
		rep.correct = false
		v = 0
	}
	rep.metrics = append(rep.metrics, metric{name: name, unit: unit, value: v, note: fmt.Sprintf(note, args...)})
}

func (rep *report) note(format string, args ...any) {
	rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
}

func (rep *report) write(w io.Writer) {
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	sorted := append([]metric(nil), rep.metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, m := range sorted {
		fmt.Fprintf(w, "%-32s %16.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", rep.correct, rep.attempted, rep.failed)
	b, _ := json.Marshal(out) // only finite numbers and strings
	fmt.Fprintf(w, "%s\n", b)
}
