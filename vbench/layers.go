package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"time"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/cluster"
	"primecache/internal/core"
	"primecache/internal/obs"
	"primecache/internal/persist"
	"primecache/internal/server"
	"primecache/internal/trace"
)

// layerRun computes the per-layer metrics of a traced run.
type layerRun struct {
	r           *runner
	rd          ready
	p, plain    phase // the traced and the untraced timed phases
	before      tierStats
	coordBefore *cluster.StatsResponse
	// tracers are the benchmark's own, the coordinator's and the
	// backends'; their spans share trace IDs across the hops.
	tracers []*obs.Tracer
}

// minLayerTime is how long each in-process layer measurement repeats
// its inputs, at least.
const minLayerTime = 200 * time.Millisecond

// repeat runs fn over and over until minLayerTime has passed, inside a
// span of the benchmark's tracer, and returns the time per run.
func (l *layerRun) repeat(name string, fn func()) time.Duration {
	_, span := l.tracers[0].StartSpan(context.Background(), name)
	defer span.End()
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < minLayerTime {
		fn()
		n++
	}
	span.SetAttr("runs", fmt.Sprint(n))
	return time.Since(start) / time.Duration(n)
}

func perUnit(d time.Duration, units int, unit time.Duration) float64 {
	if units == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(units)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (l *layerRun) measure(rep *report) error {
	ctx := context.Background()
	after, err := l.rd.c.tierStats(ctx)
	if err != nil {
		return err
	}
	coordAfter, err := l.rd.c.coordStats(ctx)
	if err != nil {
		return err
	}
	d := after.sub(l.before)
	rep.add("server.memo_hit_ratio", "ratio", ratio(d.memoHits, d.memoHits+d.memoMisses), "%d lookups", d.memoHits+d.memoMisses)
	rep.add("server.shed", "count", float64(d.shed), "")
	rep.add("server.degraded", "count", float64(d.degraded), "")
	rep.add("persist.hit_ratio", "ratio", ratio(d.persistHits, d.persistHits+d.persistMisses), "%d lookups", d.persistHits+d.persistMisses)
	rep.add("persist.bytes_appended", "bytes", float64(d.persistBytes), "")
	rep.add("persist.compactions", "count", float64(d.compactions), "")
	var most, total uint64
	for _, n := range d.jobs {
		most = max(most, n)
		total += n
	}
	rep.add("cluster.backend_job_imbalance", "ratio", ratio(most*backendCount, total), "busiest backend / mean")
	rep.add("cluster.reroutes", "count", float64(coordAfter.Reroutes-l.coordBefore.Reroutes), "")
	rep.add("cluster.hedges", "count", float64(coordAfter.Hedges-l.coordBefore.Hedges), "")
	rep.add("cluster.shed", "count", float64(coordAfter.Admission.Shed-l.coordBefore.Admission.Shed), "")

	plainOK, _, _ := answered(l.plain.closed)
	tracedOK, _, _ := answered(l.p.closed)
	plainRate, tracedRate := per(plainOK, l.plain.closedTime), per(tracedOK, l.p.closedTime)
	overhead := 0.0
	if tracedRate > 0 {
		overhead = plainRate/tracedRate - 1
	}
	rep.add("bench.trace_overhead_frac", "ratio", overhead, "closed-loop rate untraced %.1f/s, traced %.1f/s", plainRate, tracedRate)
	late, what := l.plain.closed, "closed-loop gap between answer and next send, p99"
	if len(l.plain.open) > 0 {
		late, what = l.plain.open, "open-loop dispatch lateness, p99"
	}
	lateMs := make([]float64, len(late))
	for i, o := range late {
		lateMs[i] = ms(o.late)
	}
	rep.add("bench.gen_late_ms", "ms", quantile(lateMs, 0.99), "%s", what)
	rep.add("bench.gen_reruns", "count", float64(l.plain.reruns+l.p.reruns), "timed phases run again because the open-loop generator fell behind")
	notModified, answers := 0, 0
	for _, o := range append(append([]outcome(nil), l.plain.open...), l.plain.closed...) {
		switch {
		case o.sim != nil:
			answers++
			if o.sim.NotModified {
				notModified++
			}
		case o.model != nil:
			answers++
			if o.model.NotModified {
				notModified++
			}
		}
	}
	rep.add("client.not_modified_frac", "ratio", ratio(uint64(notModified), uint64(answers)), "%d single-job answers", answers)
	rep.add("failed_frac", "ratio", ratio(uint64(rep.failed), uint64(rep.attempted)), "")

	if err := l.hop(rep); err != nil {
		return err
	}
	l.spans(rep)
	return l.inProcess(rep)
}

// hopSamples and hopRounds size the coordinator-hop measurement: that
// many already-answered jobs, each sent that many times through the
// coordinator and straight to its primary backend, alternately.
const (
	hopSamples = 16
	hopRounds  = 5
)

// hop measures what the coordinator adds to a memo hit: the latency of
// a job through the coordinator minus the latency of the same job sent
// straight to the backend the ring routes it to.
func (l *layerRun) hop(rep *report) error {
	ctx := context.Background()
	ring := l.rd.c.coord.Ring()
	direct := map[string]*client.Client{}
	for _, u := range l.rd.c.urls {
		direct[u] = client.New(u, client.WithRetries(0), client.WithETagCache(0))
		defer direct[u].Close()
	}
	via := client.New(l.rd.c.coordURL, client.WithRetries(0), client.WithETagCache(0))
	defer via.Close()
	do := func(c *client.Client, j server.SweepJob) (time.Duration, error) {
		start := time.Now()
		var err error
		if j.Simulate != nil {
			_, err = c.Simulate(ctx, *j.Simulate)
		} else {
			_, err = c.Model(ctx, *j.Model)
		}
		return time.Since(start), err
	}
	var diffs []float64
	jobs := l.rd.inst.sample()
	for _, j := range jobs[:min(hopSamples, len(jobs))] {
		if _, err := do(via, j); err != nil { // make sure it is memoized
			return fmt.Errorf("hop probe: %w", err)
		}
		primary := direct[ring.Primary(j.Key())]
		for i := 0; i < hopRounds; i++ {
			tc, err := do(via, j)
			if err != nil {
				return fmt.Errorf("hop probe: %w", err)
			}
			td, err := do(primary, j)
			if err != nil {
				return fmt.Errorf("hop probe: %w", err)
			}
			diffs = append(diffs, ms(tc-td))
		}
	}
	rep.add("cluster.hop_ms", "ms", median(diffs), "median of %d paired memo hits", len(diffs))
	return nil
}

// spanSelf folds every recorded span into self time per span name: a
// span's duration less the part of it its children cover, children in
// other processes included (they share the trace and name the parent).
type spanSelf struct {
	count  int
	selfUs float64
}

func (l *layerRun) fold() (map[string]*spanSelf, map[obs.TraceID][]obs.SpanData) {
	byTrace := map[obs.TraceID][]obs.SpanData{}
	for _, t := range l.tracers {
		for _, td := range t.Traces() {
			byTrace[td.Trace] = append(byTrace[td.Trace], td.Spans...)
		}
	}
	self := map[string]*spanSelf{}
	for _, spans := range byTrace {
		children := map[obs.SpanID][]obs.SpanData{}
		for _, s := range spans {
			if s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		for _, s := range spans {
			f := self[s.Name]
			if f == nil {
				f = &spanSelf{}
				self[s.Name] = f
			}
			f.count++
			f.selfUs += float64(s.DurationUs) - coveredUs(s, children[s.Span])
		}
	}
	return self, byTrace
}

// coveredUs returns how many microseconds of parent's interval the
// union of its children's intervals covers.
func coveredUs(parent obs.SpanData, kids []obs.SpanData) float64 {
	type iv struct{ lo, hi time.Time }
	pEnd := parent.Start.Add(time.Duration(parent.DurationUs) * time.Microsecond)
	var ivs []iv
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(time.Duration(k.DurationUs)*time.Microsecond)
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(pEnd) {
			hi = pEnd
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			covered += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return float64(covered) / float64(time.Microsecond)
}

// spanMetrics maps the server's existing span names to per-layer
// metrics: mean self time per span.
var spanMetrics = []struct {
	span, metric string
	unit         time.Duration
}{
	{"admit", "server.admit_us", time.Microsecond},
	{"pool.wait", "server.pool_wait_us", time.Microsecond},
	{"eval.vector", "server.eval_vector_ms", time.Millisecond},
	{"eval.replay", "server.eval_replay_ms", time.Millisecond},
	{"eval.analytic", "server.eval_analytic_ms", time.Millisecond},
	{"persist-lookup", "server.persist_lookup_us", time.Microsecond},
	{"persist-store", "server.persist_store_us", time.Microsecond},
}

func (l *layerRun) spans(rep *report) {
	self, byTrace := l.fold()
	for _, m := range spanMetrics {
		v, n := 0.0, 0
		if f := self[m.span]; f != nil && f.count > 0 {
			v = f.selfUs * float64(time.Microsecond) / float64(m.unit) / float64(f.count)
			n = f.count
		}
		unit := "us"
		if m.unit == time.Millisecond {
			unit = "ms"
		}
		rep.add(m.metric, unit, v, "mean self time of %d %q spans", n, m.span)
	}
	// The slowest scatter leg of a sweep over its median leg, per sweep.
	var skews []float64
	for _, spans := range byTrace {
		var legs []float64
		for _, s := range spans {
			if s.Name == "sweep.leg" {
				legs = append(legs, float64(s.DurationUs))
			}
		}
		if len(legs) >= 2 {
			if m := median(legs); m > 0 {
				sort.Float64s(legs)
				skews = append(skews, legs[len(legs)-1]/m)
			}
		}
	}
	rep.add("cluster.leg_skew", "ratio", median(skews), "median over %d sweeps", len(skews))
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := self[n]
		rep.note("self time %-22s %8d spans %12.3f ms total %10.1f us mean", n, f.count, f.selfUs/1e3, f.selfUs/float64(f.count))
	}
}

// dump writes every recorded trace, one JSON object per line.
func (l *layerRun) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range l.tracers {
		for _, td := range t.Traces() {
			if err := enc.Encode(struct {
				Origin string         `json:"origin"`
				Trace  obs.TraceID    `json:"trace"`
				Spans  []obs.SpanData `json:"spans"`
			}{t.Origin(), td.Trace, td.Spans}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// configOf returns the cache.Config Spec.Build uses for the
// organisations built through cache.New.
func configOf(s cache.Spec) (cache.Config, bool) {
	s = s.Normalize()
	switch s.Kind {
	case "prime":
		m, err := cache.NewPrimeMapper(s.C)
		return cache.Config{Mapper: m, Ways: 1}, err == nil
	case "direct":
		m, err := cache.NewDirectMapper(s.Lines)
		return cache.Config{Mapper: m, Ways: 1}, err == nil
	case "assoc":
		p, err := cache.ParsePolicy(s.Policy)
		if err != nil {
			return cache.Config{}, false
		}
		m, err := cache.NewDirectMapper(s.Lines / s.Ways)
		return cache.Config{Mapper: m, Ways: s.Ways, Policy: p}, err == nil
	}
	return cache.Config{}, false
}

// evalChunk is the vector length the service drives LoadVector with.
const evalChunk = 1 << 16

// loadVectors drives req's strided or diagonal sweep through vc the way
// the service does: passes × chunks of at most evalChunk elements.
func loadVectors(vc *core.VectorCache, req server.SimulateRequest) error {
	p := req.Pattern
	stride := p.Stride
	if p.Name == "diagonal" {
		stride = int64(p.LD) + 1
	}
	for pass := 0; pass < req.Passes; pass++ {
		start := p.Start
		for done := 0; done < p.N; done += evalChunk {
			n := min(p.N-done, evalChunk)
			if _, err := vc.LoadVector(start, stride, n, p.Stream); err != nil {
				return err
			}
			start += uint64(int64(n) * stride)
		}
	}
	return nil
}

// inProcess times the public functions of each layer on the workload's
// own sample jobs.
func (l *layerRun) inProcess(rep *report) error {
	var sims []server.SimulateRequest
	for _, j := range l.rd.inst.sample() {
		if j.Simulate != nil {
			sims = append(sims, j.Simulate.Normalize())
		}
	}
	// Split the sample by the path the service takes for each job; the
	// closed-form jobs are timed separately below.
	var replay, vector []server.SimulateRequest
	for _, s := range sims {
		if _, ok := analyticStride(s); ok {
			continue
		}
		if _, err := core.FromSpec(s.Cache); err == nil && (s.Pattern.Name == "strided" || s.Pattern.Name == "diagonal") {
			vector = append(vector, s)
			continue
		}
		replay = append(replay, s)
	}
	sumRefs := func(reqs []server.SimulateRequest) int {
		n := 0
		for _, r := range reqs {
			n += r.Pattern.RefCount() * r.Passes
		}
		return n
	}

	// Exact counts over every sample job, and their digest.
	var all []cache.Stats
	var total cache.Stats
	for _, s := range sims {
		st, err := expectSimulate(s)
		if err != nil {
			return err
		}
		all = append(all, st)
		total.Add(st)
	}
	rep.add("cache.refs", "count", float64(total.Accesses), "%d sample jobs", len(sims))
	rep.add("cache.misses", "count", float64(total.Misses), "")
	rep.add("cache.conflict", "count", float64(total.Conflict), "")
	rep.add("cache.capacity", "count", float64(total.Capacity), "")
	rep.add("cache.compulsory", "count", float64(total.Compulsory), "")
	rep.add("cache.stats_digest", "hash", float64(statsDigest(all)), "FNV-1a over the sample jobs' stats")

	var err error
	replayAll := func() {
		for _, s := range replay {
			sim, e := s.Cache.Build()
			if e == nil {
				_, e = trace.ReplayPattern(sim, s.Pattern, s.Passes)
			}
			if e != nil {
				err = e
			}
		}
	}
	t := l.repeat("layer.cache.replay", replayAll)
	rep.add("cache.replay_ns_per_ref", "ns", perUnit(t, sumRefs(replay), time.Nanosecond), "%d replay jobs", len(replay))
	a0 := allocated()
	replayAll()
	rep.add("cache.job_alloc_kb", "KiB", float64(allocated()-a0)/1024/float64(max(1, len(replay))), "")

	var classified []server.SimulateRequest
	for _, s := range replay {
		if _, ok := configOf(s.Cache); ok {
			classified = append(classified, s)
		}
	}
	replayNew := func(disable bool) func() {
		return func() {
			for _, s := range classified {
				cfg, _ := configOf(s.Cache)
				cfg.DisableClassify = disable
				c, e := cache.New(cfg)
				if e == nil {
					_, e = trace.ReplayPattern(c, s.Pattern, s.Passes)
				}
				if e != nil {
					err = e
				}
			}
		}
	}
	with := l.repeat("layer.cache.classify-on", replayNew(false))
	without := l.repeat("layer.cache.classify-off", replayNew(true))
	share := 0.0
	if with > 0 {
		share = 1 - float64(without)/float64(with)
	}
	rep.add("cache.classify_share", "ratio", share, "%d jobs through cache.New", len(classified))

	t = l.repeat("layer.cache.build", func() {
		for _, s := range sims {
			if _, e := s.Cache.Build(); e != nil {
				err = e
			}
		}
	})
	rep.add("cache.build_us", "us", perUnit(t, len(sims), time.Microsecond), "")

	t = l.repeat("layer.core.vector", func() {
		for _, s := range vector {
			vc, e := core.FromSpec(s.Cache)
			if e == nil {
				e = loadVectors(vc, s)
			}
			if e != nil {
				err = e
			}
		}
	})
	rep.add("core.vector_ns_per_ref", "ns", perUnit(t, sumRefs(vector), time.Nanosecond), "%d vector jobs", len(vector))

	// The closed form on every strided sweep of a prime or direct
	// cache in the sample, whatever its size.
	var closed []server.SimulateRequest
	for _, s := range sims {
		if s.Pattern.Name == "strided" && (s.Cache.Kind == "prime" || s.Cache.Kind == "direct") {
			closed = append(closed, s)
		}
	}
	t = l.repeat("layer.cache.analytic", func() {
		for _, s := range closed {
			cache.StridedSweepStats(s.Cache, s.Pattern.Start, s.Pattern.Stride, s.Pattern.N, s.Passes, s.Pattern.Stream)
		}
	})
	rep.add("cache.analytic_us", "us", perUnit(t, len(closed), time.Microsecond), "%d strided sweeps", len(closed))

	cursorJobs := append(append([]server.SimulateRequest(nil), replay...), vector...)
	var buf [256]cache.Access
	t = l.repeat("layer.trace.cursor", func() {
		for _, s := range cursorJobs {
			c, e := trace.NewCursor(s.Pattern)
			if e != nil {
				err = e
				continue
			}
			for pass := 0; pass < s.Passes; pass++ {
				c.Reset()
				for c.Next(buf[:]) > 0 {
				}
			}
		}
	})
	rep.add("trace.cursor_ns_per_ref", "ns", perUnit(t, sumRefs(cursorJobs), time.Nanosecond), "")
	if err != nil {
		return err
	}
	if err := l.codec(rep); err != nil {
		return err
	}
	return l.stores(rep)
}

// codecSample is how many of the requests sent, and answers received,
// the codec measurements use.
const codecSample = 64

// codec times the server's request codec on the bodies the traced phase
// sent and the answers it received.
func (l *layerRun) codec(rep *report) error {
	outs := append(append([]outcome(nil), l.p.open...), l.p.closed...)
	reqs := l.rd.inst.sent(codecSample)
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	var err error
	t := l.repeat("layer.server.decode", func() {
		for i, b := range bodies {
			if e := json.Unmarshal(b, reflect.New(reflect.TypeOf(reqs[i])).Interface()); e != nil {
				err = e
			}
		}
	})
	rep.add("server.decode_us", "us", perUnit(t, len(bodies), time.Microsecond), "%d bodies", len(bodies))
	lim := server.DefaultLimits()
	t = l.repeat("layer.server.validate", func() {
		for _, r := range reqs {
			if e := r.(interface{ Validate(server.Limits) error }).Validate(lim); e != nil {
				err = e
			}
		}
	})
	rep.add("server.validate_us", "us", perUnit(t, len(reqs), time.Microsecond), "")
	t = l.repeat("layer.server.key", func() {
		for _, r := range reqs {
			switch v := r.(type) {
			case server.SimulateRequest:
				_ = v.Key()
			case server.ModelRequest:
				_ = v.Key()
			case server.SweepRequest:
				for _, j := range v.Jobs {
					_ = j.Key()
				}
			}
		}
	})
	rep.add("server.key_us", "us", perUnit(t, len(reqs), time.Microsecond), "")
	var answers []any
	for _, o := range outs[:min(codecSample, len(outs))] {
		switch {
		case o.sim != nil:
			answers = append(answers, o.sim.SimulateResponse)
		case o.model != nil:
			answers = append(answers, o.model.ModelResponse)
		case o.sweep != nil:
			answers = append(answers, o.sweep)
		}
	}
	t = l.repeat("layer.server.encode", func() {
		for _, a := range answers {
			if _, e := json.Marshal(a); e != nil {
				err = e
			}
		}
	})
	rep.add("server.encode_us", "us", perUnit(t, len(answers), time.Microsecond), "%d answers", len(answers))
	return err
}

// stores times the memo and the ring on the traced phase's job keys,
// and the persist store on its answers.
func (l *layerRun) stores(rep *report) error {
	keys := l.rd.inst.keys()
	var values [][]byte
	for _, o := range append(append([]outcome(nil), l.p.open...), l.p.closed...) {
		var rs []*server.SimulateResponse
		if o.sim != nil {
			rs = append(rs, &o.sim.SimulateResponse)
		}
		for _, r := range o.sweep {
			rs = append(rs, r.Simulate)
		}
		for _, r := range rs {
			if r == nil {
				continue
			}
			b, err := json.Marshal(r)
			if err != nil {
				return err
			}
			// The server's persist record: a type tag, then the JSON.
			values = append(values, append([]byte{'s'}, b...))
		}
	}

	memoCap := l.r.w.cluster.memoEntries
	if memoCap == 0 {
		memoCap = 4096
	}
	var getT, putT time.Duration
	var gets, puts int
	l.repeat("layer.server.memo", func() {
		m := server.NewMemo(memoCap)
		for _, k := range keys {
			start := time.Now()
			_, ok := m.Get(k)
			getT += time.Since(start)
			gets++
			if !ok {
				start = time.Now()
				m.Put(k, k)
				putT += time.Since(start)
				puts++
			}
		}
	})
	rep.add("server.memo_get_ns", "ns", perUnit(getT, gets, time.Nanosecond), "%d keys, memo of %d", len(keys), memoCap)
	rep.add("server.memo_put_ns", "ns", perUnit(putT, puts, time.Nanosecond), "")

	dir := filepath.Join(l.r.dir, "persist-probe")
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return err
	}
	ctx := context.Background()
	start := time.Now()
	for i, v := range values {
		if err := store.Put(ctx, strconv.Itoa(i), v); err != nil {
			store.Kill()
			return err
		}
	}
	putPer := perUnit(time.Since(start), len(values), time.Microsecond)
	start = time.Now()
	for i := range values {
		if _, ok := store.Get(strconv.Itoa(i)); !ok {
			store.Kill()
			return fmt.Errorf("persist probe lost answer %d", i)
		}
	}
	getPer := perUnit(time.Since(start), len(values), time.Microsecond)
	store.Kill()
	os.RemoveAll(dir)
	rep.add("persist.put_us", "us", putPer, "%d answers", len(values))
	rep.add("persist.get_us", "us", getPer, "")

	t := l.repeat("layer.cluster.route", func() {
		ring, e := cluster.NewRing(l.rd.c.urls, 0)
		if e != nil {
			err = e
			return
		}
		for _, k := range keys {
			_ = ring.Primary(k)
			_ = ring.Replicas(k, 2)
		}
	})
	rep.add("cluster.route_ns", "ns", perUnit(t, len(keys), time.Nanosecond), "")
	return err
}
