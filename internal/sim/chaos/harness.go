package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"primecache/internal/cache"
	"primecache/internal/client"
	"primecache/internal/cluster"
	"primecache/internal/obs"
	"primecache/internal/server"
	"primecache/internal/sim"
	"primecache/internal/sim/leak"
	"primecache/internal/trace"
)

// Options configures one chaos run. The zero value picks the standard
// 3-node, 8-step, 24-job configuration.
type Options struct {
	// Seed selects the fault schedule; the whole run is replayable from
	// it alone.
	Seed int64
	// Nodes is the cluster size (default 3, minimum 2).
	Nodes int
	// Steps is the schedule length (default 8).
	Steps int
	// Jobs is the sweep batch size run after every step (default 24).
	Jobs int
	// DropRescatter plants the deliberate failover bug in the
	// coordinator, to prove the no-lost-jobs invariant trips on it.
	DropRescatter bool
	// Persist gives every node a disk-backed memo tier in its own temp
	// directory. The directory survives crash/restart events — like a
	// disk across a process crash — so each restart exercises the
	// store's recovery path, and the warm-restart invariant checks a
	// restarted node answers previously-persisted jobs without
	// recomputing.
	Persist bool
	// RequestTimeout bounds one coordinator request (default 30s — the
	// run is step-synchronous, so this only matters when failover is
	// broken and a job's result never arrives).
	RequestTimeout time.Duration
	// Membership adds live join/leave events to the generated schedule:
	// a leave drains the node through the coordinator's admin API and
	// then decommissions it (disk wiped), a join boots it cold and adds
	// it back — which is what makes the warm-join invariant sharp: any
	// warmth the joiner shows can only have arrived via migration.
	Membership bool
	// Schedule overrides the generated schedule; nil selects
	// sim.GenerateWith(Seed, Nodes, Steps, {Membership}).
	Schedule *sim.Schedule
}

func (o Options) withDefaults() Options {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Steps <= 0 {
		o.Steps = 8
	}
	if o.Jobs <= 0 {
		o.Jobs = 24
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	return o
}

// Violation is one invariant breach, tagged with the step and invariant
// name so a seed's failure reads like a trace.
type Violation struct {
	Step      int
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("step %02d: invariant %s violated: %s", v.Step, v.Invariant, v.Detail)
}

// Report is the outcome of one chaos run.
type Report struct {
	// Schedule is the fault schedule the run executed.
	Schedule sim.Schedule
	// Log is the deterministic event log: the schedule's events plus
	// one sweep-outcome line per step. Two runs with the same seed and
	// options produce byte-identical logs.
	Log []string
	// Violations holds every invariant breach, in step order.
	Violations []Violation
	// WarmChecks counts warm-restart invariant evaluations that ran: a
	// node restarted with the probe job on disk and was actually
	// checked. A persist-enabled run whose schedule restarts the probe's
	// owner should report at least one.
	WarmChecks int
	// WarmJoinChecks counts warm-join invariant evaluations: a node
	// joined with the probe job migrated onto its freshly wiped disk and
	// was actually checked.
	WarmJoinChecks int
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Invariant names, as they appear in violations.
const (
	InvJobs       = "no-lost-jobs"      // every sweep job answered exactly once, in order, successfully
	InvOracle     = "oracle-identical"  // payloads byte-identical to the single-node oracle
	InvLocality   = "memo-locality"     // repeat of an identical job is a memo hit
	InvAdmission  = "admission-quiesce" // admission/pool/inflight gauges return to zero between steps
	InvTrace      = "trace-stitching"   // every backend trace stitches to a coordinator trace across the hop
	InvLeak       = "goroutine-leak"    // everything spawned during the run exits at teardown
	InvWarm       = "warm-restart"      // a restarted node answers previously-persisted jobs memoized, with zero pool work
	InvMembership = "membership-change" // admin join/leave calls complete against a reachable cluster
	InvWarmJoin   = "warm-join"         // a freshly joined node answers a migrated probe job memoized, with zero pool work
	InvViews      = "stats-metrics"     // every counter /v1/stats and /metrics both expose reads the same in both, at rest
)

// chaosAdminToken gates the coordinator's admin API inside the harness;
// membership events authenticate with it.
const chaosAdminToken = "chaos-admin"

// run owns the live pieces of one chaos execution.
type run struct {
	opts   Options
	sched  sim.Schedule
	nodes  []*node
	coord  *cluster.Coordinator
	tracer *obs.Tracer
	cts    *httptest.Server
	cl     *client.Client
	req    server.SweepRequest
	oracle [][]byte // per-index payload JSON from the single-node reference
	probe  server.SimulateRequest
	dirs   []string // per-node persist temp dirs, removed at teardown
	rep    *Report
}

// Run executes one seeded chaos schedule against a fresh in-process
// cluster and returns the report. Setup or oracle failures — problems
// with the harness, not the cluster — surface as an error instead.
func Run(o Options) (*Report, error) {
	o = o.withDefaults()
	sched := sim.GenerateWith(o.Seed, o.Nodes, o.Steps, sim.GenOptions{Membership: o.Membership})
	if o.Schedule != nil {
		sched = *o.Schedule
	}
	r := &run{opts: o, sched: sched, rep: &Report{Schedule: sched}}
	if err := r.setup(); err != nil {
		r.teardown()
		return nil, err
	}
	// The sweep runs before the locality probe on purpose: right after
	// the step's faults land, the coordinator still believes every node
	// is healthy, so the scatter routes straight into freshly-crashed
	// backends and mid-flight failover (not probe-ahead avoidance) is
	// what the no-lost-jobs invariant exercises.
	for step := 0; step < r.sched.Steps; step++ {
		r.applyEvents(step)
		r.runSweep(step)
		r.checkLocality(step)
		r.checkQuiesce(step)
		r.checkTraces(step)
		r.checkViews(step)
	}
	r.teardown()
	if left := leak.Wait(2 * time.Second); len(left) > 0 {
		r.violate(r.sched.Steps, InvLeak,
			fmt.Sprintf("%d goroutine(s) survived teardown:\n%s", len(left), left[0]))
	}
	return r.rep, nil
}

// setup boots the nodes, the coordinator, and the single-node oracle,
// and precomputes the reference payloads.
func (r *run) setup() error {
	r.req = sweepJobs(r.opts.Jobs)
	r.probe = server.SimulateRequest{
		Cache:   cache.Spec{Kind: "prime", C: 13},
		Pattern: trace.Pattern{Name: "strided", Stride: 17, N: 4096, Stream: 1},
	}

	// Single-node oracle: the same jobs on one plain vcached. Payloads
	// are pure functions of the job, so the cluster must reproduce them
	// byte for byte no matter which node computes what.
	oracle := server.New(server.Options{})
	ots := httptest.NewServer(oracle.Handler())
	ocl := client.New(ots.URL, client.WithRetries(0))
	res, err := ocl.Sweep(context.Background(), r.req)
	ocl.Close()
	ots.Close()
	oracle.Close()
	if err != nil {
		return fmt.Errorf("chaos: oracle sweep: %w", err)
	}
	r.oracle = make([][]byte, len(res))
	for i, sr := range res {
		if sr.Error != "" {
			return fmt.Errorf("chaos: oracle job %d failed: %s", i, sr.Error)
		}
		if r.oracle[i], err = payloadJSON(sr); err != nil {
			return fmt.Errorf("chaos: oracle job %d: %w", i, err)
		}
	}

	backends := make([]string, r.sched.Nodes)
	for i := 0; i < r.sched.Nodes; i++ {
		dir := ""
		if r.opts.Persist {
			var err error
			if dir, err = os.MkdirTemp("", fmt.Sprintf("chaos-persist-%d-*", i)); err != nil {
				return fmt.Errorf("chaos: persist dir: %w", err)
			}
			r.dirs = append(r.dirs, dir)
		}
		n := newNode(i, server.Options{}, dir)
		r.nodes = append(r.nodes, n)
		backends[i] = n.ts.URL
	}
	// Probing and hedging are schedule-driven: the background prober is
	// off (EventProbe runs rounds explicitly) and hedging is disabled so
	// a request's backend is a deterministic function of health state.
	// Tracing stays on for every run: the harness doubles as the proof
	// that instrumentation never perturbs an invariant, and the stitching
	// check needs the rings. Capacity covers a full run (every step's
	// sweep plus two locality probes) without eviction.
	r.tracer = obs.NewTracer(obs.TracerOptions{Origin: "coord", Capacity: 1024})
	coord, err := cluster.New(cluster.Options{
		Backends:       backends,
		Replicas:       r.sched.Nodes,
		ProbeInterval:  -1,
		HedgeAfter:     -1,
		RequestTimeout: r.opts.RequestTimeout,
		Tracer:         r.tracer,
		DropRescatter:  r.opts.DropRescatter,
		AdminToken:     chaosAdminToken,
	})
	if err != nil {
		return fmt.Errorf("chaos: coordinator: %w", err)
	}
	r.coord = coord
	r.cts = httptest.NewServer(coord.Handler())
	r.cl = client.New(r.cts.URL, client.WithRetries(0), client.WithAdminToken(chaosAdminToken))
	return nil
}

func (r *run) teardown() {
	if r.cl != nil {
		r.cl.Close()
	}
	if r.cts != nil {
		r.cts.CloseClientConnections()
		r.cts.Close()
	}
	if r.coord != nil {
		r.coord.Close()
	}
	for _, n := range r.nodes {
		n.close()
	}
	for _, d := range r.dirs {
		os.RemoveAll(d)
	}
}

func (r *run) violate(step int, inv, detail string) {
	r.rep.Violations = append(r.rep.Violations, Violation{Step: step, Invariant: inv, Detail: detail})
}

func (r *run) logf(format string, args ...any) {
	r.rep.Log = append(r.rep.Log, fmt.Sprintf(format, args...))
}

// applyEvents plays this step's schedule entries against the cluster.
func (r *run) applyEvents(step int) {
	for _, ev := range r.sched.At(step) {
		r.rep.Log = append(r.rep.Log, ev.String())
		n := r.nodes[ev.Node]
		switch ev.Kind {
		case sim.EventCrash:
			n.crash()
		case sim.EventRestart:
			n.start()
			r.checkWarm(step, n)
		case sim.EventPartition:
			n.partition()
		case sim.EventHeal:
			n.heal()
		case sim.EventLatency:
			n.spike(ev.Dur)
		case sim.EventSkew:
			n.setSkew(ev.Dur)
		case sim.EventProbe:
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			r.coord.CheckHealth(ctx)
			cancel()
		case sim.EventLeave:
			r.adminLeave(step, n)
		case sim.EventJoin:
			r.adminJoin(step, n)
		}
	}
}

// adminLeave drains a node out through the admin API, then
// decommissions it: the process is killed and its disk wiped, so a
// later rejoin starts genuinely cold and any warmth it then shows can
// only have arrived via the coordinator's migration. The admin call
// happens while the node is still up — the leave migration exports
// from it.
func (r *run) adminLeave(step int, n *node) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()
	if _, err := r.cl.AdminLeave(ctx, n.ts.URL); err != nil {
		r.violate(step, InvMembership, fmt.Sprintf("leave of node %d failed: %v", n.idx, err))
		return
	}
	n.decommission()
}

// adminJoin boots the decommissioned node cold on its original URL and
// adds it back through the admin API, then evaluates the warm-join
// invariant: if the coordinator's migration landed the fixed probe job
// on the joiner's freshly wiped disk, the joiner must answer it
// memoized with zero pool work.
func (r *run) adminJoin(step int, n *node) {
	n.start()
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()
	if _, err := r.cl.AdminJoin(ctx, n.ts.URL); err != nil {
		r.violate(step, InvMembership, fmt.Sprintf("join of node %d failed: %v", n.idx, err))
		return
	}
	r.warmProbe(step, n, InvWarmJoin, &r.rep.WarmJoinChecks)
}

// checkWarm evaluates the warm-restart invariant on a node that just
// restarted: if its persist directory holds the fixed probe job (a
// prior incarnation computed and stored it before dying), the fresh
// server — whose memo and pool are empty — must answer that job
// memoized with zero pool work, straight from disk. The probe goes to
// the node directly but rides a span from the coordinator's tracer, so
// the trace-stitching invariant sees a remote-parented trace the
// coordinator knows, exactly like proxied traffic.
func (r *run) checkWarm(step int, n *node) {
	r.warmProbe(step, n, InvWarm, &r.rep.WarmChecks)
}

// warmProbe is the shared body of the warm-restart and warm-join
// invariants: when the node's persist tier holds the fixed probe job,
// the node — whose memo and pool are empty — must answer it memoized
// with zero pool work, straight from disk.
func (r *run) warmProbe(step int, n *node, inv string, checks *int) {
	if !r.opts.Persist {
		return
	}
	srv := n.server()
	if srv == nil || srv.Persist() == nil {
		return
	}
	key := server.SweepJob{Simulate: &r.probe}.Key()
	if _, ok := srv.Persist().Get(key); !ok {
		return // this node never served the probe; nothing to assert
	}
	*checks++
	before := srv.Metrics().Value("vcached_pool_completed_total")

	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()
	ctx, span := r.tracer.StartSpan(ctx, "warm-probe")
	// A dedicated transport guarantees a fresh connection: the shared
	// default pool may hold a keep-alive connection the crash severed,
	// and a stale-connection EOF would read as a false violation.
	tr := &http.Transport{}
	ncl := client.New(n.ts.URL, client.WithRetries(0),
		client.WithHTTPClient(&http.Client{Transport: tr, Timeout: r.opts.RequestTimeout}))
	res, err := ncl.Simulate(ctx, r.probe)
	tr.CloseIdleConnections()
	span.End()
	if err != nil {
		r.violate(step, inv, fmt.Sprintf("node %d: probe against warm node failed: %v", n.idx, err))
		return
	}
	if !res.Memoized {
		r.violate(step, inv, fmt.Sprintf("node %d answered the persisted probe job unmemoized — the disk tier was not consulted", n.idx))
	}
	if after := srv.Metrics().Value("vcached_pool_completed_total"); after != before {
		r.violate(step, inv, fmt.Sprintf("node %d burned %v pool job(s) answering a persisted job, want 0", n.idx, after-before))
	}
}

// checkLocality sends the fixed probe job twice through the
// coordinator. Whatever faults are live, the two calls see identical
// health state, so they must route to the same backend and the second
// must be a memo hit — shard stickiness surviving failover. Both calls
// failing is legitimate under some schedules (the probe's replicas may
// all be mid-discovery); a success pair that misses the memo is not.
func (r *run) checkLocality(step int) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout)
	defer cancel()
	first, err := r.cl.Simulate(ctx, r.probe)
	if err != nil {
		return
	}
	second, err := r.cl.Simulate(ctx, r.probe)
	if err != nil {
		r.violate(step, InvLocality, fmt.Sprintf("repeat of just-served probe job failed: %v", err))
		return
	}
	if !second.Memoized {
		r.violate(step, InvLocality, "repeat of identical probe job not memoized — routing lost shard stickiness")
	}
	if first.HitRatio != second.HitRatio {
		r.violate(step, InvLocality, fmt.Sprintf("probe pair disagrees: hit ratio %v then %v", first.HitRatio, second.HitRatio))
	}
}

// runSweep pushes the full batch through the coordinator and checks the
// job-conservation and oracle invariants on what comes back.
func (r *run) runSweep(step int) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.RequestTimeout+5*time.Second)
	defer cancel()
	results, err := r.cl.Sweep(ctx, r.req)
	if err != nil {
		r.logf("step %02d: sweep ok=0 err=%d (call failed)", step, len(r.req.Jobs))
		r.violate(step, InvJobs, fmt.Sprintf("sweep call failed outright: %v", err))
		return
	}

	ok, failed := 0, 0
	seen := make(map[int]bool, len(results))
	for pos, sr := range results {
		if sr.Index != pos {
			r.violate(step, InvJobs, fmt.Sprintf("result %d carries index %d — jobs reordered or duplicated", pos, sr.Index))
		}
		if seen[sr.Index] {
			r.violate(step, InvJobs, fmt.Sprintf("job %d answered twice", sr.Index))
		}
		seen[sr.Index] = true
		if sr.Error != "" {
			failed++
			continue
		}
		ok++
		if sr.Index < 0 || sr.Index >= len(r.oracle) {
			continue
		}
		got, err := payloadJSON(sr)
		if err != nil {
			r.violate(step, InvOracle, fmt.Sprintf("job %d: %v", sr.Index, err))
			continue
		}
		if !bytes.Equal(got, r.oracle[sr.Index]) {
			r.violate(step, InvOracle, fmt.Sprintf("job %d payload differs from single-node oracle:\n cluster: %s\n  oracle: %s",
				sr.Index, got, r.oracle[sr.Index]))
		}
	}
	r.logf("step %02d: sweep ok=%d err=%d", step, ok, failed)

	if len(results) != len(r.req.Jobs) {
		r.violate(step, InvJobs, fmt.Sprintf("sent %d jobs, got %d results", len(r.req.Jobs), len(results)))
	}
	// The generator keeps at least one node reachable and the ring is
	// configured with full replication, so with working failover every
	// job must succeed; a per-job error means a job was lost to a dead
	// replica instead of re-scattered.
	for _, sr := range results {
		if sr.Error != "" {
			r.violate(step, InvJobs, fmt.Sprintf("job %d failed despite a reachable replica: %s: %s", sr.Index, sr.ErrorCode, sr.Error))
		}
	}
}

// checkQuiesce asserts conservation at rest: once the step's requests
// have all been answered, every admission slot has been released and
// every in-flight gauge is back to zero, on the coordinator and on each
// live node. Handlers finish their bookkeeping just after writing the
// response, so the check polls briefly before calling it a leak.
func (r *run) checkQuiesce(step int) { r.atRest(step, InvAdmission, r.quiesceProblem) }

// atRest polls problem for up to two seconds until it reports "" and
// records a violation of inv with its last report if it never does.
func (r *run) atRest(step int, inv string, problem func() string) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		detail := problem()
		if detail == "" {
			return
		}
		if time.Now().After(deadline) {
			r.violate(step, inv, detail)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// quiesceProblem returns a description of the first gauge still off
// zero, or "" when everything is at rest.
func (r *run) quiesceProblem() string {
	for _, n := range r.nodes {
		srv := n.server()
		if srv == nil {
			continue
		}
		for _, g := range []string{"vcached_admission_queued", "vcached_pool_busy", "vcached_pool_queued", "vcached_inflight"} {
			if v := srv.Metrics().Value(g); v != 0 {
				return fmt.Sprintf("node %d gauge %s = %v at rest, want 0", n.idx, g, v)
			}
		}
	}
	return ""
}

// checkTraces asserts the distributed-tracing invariant at rest: every
// trace in every live node's ring must carry a remotely-parented edge
// span (the propagation header survived the hop) and its trace ID must
// exist in the coordinator's own ring — including traces created by
// re-scattered or hedged work, which is exactly how "a failover hop
// stays inside one trace" is proven. Publication trails the HTTP
// response by a scheduler beat (the edge span ends after the handler
// returns), so the check polls briefly like checkQuiesce does.
func (r *run) checkTraces(step int) { r.atRest(step, InvTrace, r.traceProblem) }

// traceProblem returns a description of the first stitching breach, or
// "" when every backend trace joins up.
func (r *run) traceProblem() string {
	known := make(map[obs.TraceID]bool)
	for _, td := range r.tracer.Traces() {
		known[td.Trace] = true
	}
	for _, n := range r.nodes {
		srv := n.server()
		if srv == nil {
			continue
		}
		for _, td := range srv.Tracer().Traces() {
			remote := false
			for _, s := range td.Spans {
				if s.Remote {
					remote = true
					break
				}
			}
			if !remote {
				return fmt.Sprintf("node %d trace %016x has no remote edge span — the propagation header was dropped", n.idx, uint64(td.Trace))
			}
			if !known[td.Trace] {
				return fmt.Sprintf("node %d trace %016x is unknown to the coordinator — the trace ID did not survive the hop", n.idx, uint64(td.Trace))
			}
		}
	}
	return ""
}

// payloadJSON renders the node-independent part of one sweep result:
// the simulate/model payload without the Memoized flag (a repeat step
// legitimately serves from the memo) or the index envelope.
func payloadJSON(sr server.SweepResult) ([]byte, error) {
	var v any
	switch {
	case sr.Simulate != nil:
		v = sr.Simulate
	case sr.Model != nil:
		v = sr.Model
	default:
		return nil, fmt.Errorf("result %d carries no payload", sr.Index)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("marshal result %d: %w", sr.Index, err)
	}
	return b, nil
}

// sweepJobs builds the deterministic batch every step replays: a spread
// of cache organisations and strides plus a band of model evaluations,
// every key distinct so per-node memo state stays interpretable.
func sweepJobs(n int) server.SweepRequest {
	specs := []cache.Spec{
		{Kind: "prime", C: 13},
		{Kind: "direct", Lines: 8192},
		{Kind: "assoc", Lines: 8192, Ways: 4},
		{Kind: "skewed", Lines: 8192},
		{Kind: "victim", Lines: 8192},
	}
	var req server.SweepRequest
	models := n / 4
	for i := 0; i < n-models; i++ {
		req.Jobs = append(req.Jobs, server.SweepJob{Simulate: &server.SimulateRequest{
			Cache:   specs[i%len(specs)],
			Pattern: trace.Pattern{Name: "strided", Stride: int64(3 + 2*i), N: 256 + 8*i, Stream: 1},
			Passes:  1 + i%3,
		}})
	}
	for i := 0; i < models; i++ {
		req.Jobs = append(req.Jobs, server.SweepJob{Model: &server.ModelRequest{B: 512 << uint(i%4), Tm: 16 + 8*i}})
	}
	return req
}
