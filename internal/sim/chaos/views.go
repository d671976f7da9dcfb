package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"primecache/internal/cluster"
	"primecache/internal/obs"
	"primecache/internal/server"
)

// counterPair is one counter as /v1/stats reports it, next to the
// /metrics series that must read the same.
type counterPair struct {
	series string
	stats  uint64
}

// checkViews asserts the one-registry invariant at rest: every counter
// that /v1/stats and /metrics both expose reads the same in both views,
// on every live node and on the coordinator. Both views are rendered
// from the same registry children, so a difference means a parallel
// counter crept back in. Nodes are read through their handlers, behind
// the network gate, so partitioned nodes are checked too; the reads
// ride one coordinator span, since a node traces /v1/stats and the
// trace-stitching invariant expects every node trace to join up. Like
// checkQuiesce it polls briefly: a request the coordinator abandoned to
// a slowed node may still land and move a counter between the reads.
func (r *run) checkViews(step int) {
	ctx, span := r.tracer.StartSpan(context.Background(), "views-check")
	defer span.End()
	r.atRest(step, InvViews, func() string { return r.viewsProblem(ctx) })
}

// viewsProblem returns a description of the first counter whose two
// views disagree, or "" when all agree.
func (r *run) viewsProblem(ctx context.Context) string {
	for _, n := range r.nodes {
		srv := n.server()
		if srv == nil {
			continue
		}
		var st server.StatsResponse
		prom, err := readViews(ctx, srv.Handler(), &st)
		if err != nil {
			return fmt.Sprintf("node %d: %v", n.idx, err)
		}
		if d := viewMismatch(prom, nodeCounters(st)); d != "" {
			return fmt.Sprintf("node %d: %s", n.idx, d)
		}
	}
	var st cluster.StatsResponse
	prom, err := readViews(ctx, r.coord.Handler(), &st)
	if err != nil {
		return fmt.Sprintf("coordinator: %v", err)
	}
	if d := viewMismatch(prom, coordCounters(st)); d != "" {
		return "coordinator: " + d
	}
	return ""
}

// readViews fetches /v1/stats into stats and /metrics as parsed
// samples from h, propagating ctx's span.
func readViews(ctx context.Context, h http.Handler, stats any) (map[string]float64, error) {
	get := func(path string) (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
		obs.Inject(ctx, req.Header)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec, nil
	}
	rec, err := get("/v1/stats")
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(rec.Body.Bytes(), stats); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	if rec, err = get("/metrics"); err != nil {
		return nil, err
	}
	return obs.ParseSamples(rec.Body.Bytes())
}

// viewMismatch compares each pair. An event counter's series is absent
// from /metrics until its first count, so absence reads as 0.
func viewMismatch(prom map[string]float64, pairs []counterPair) string {
	for _, p := range pairs {
		if got := prom[p.series]; got != float64(p.stats) {
			return fmt.Sprintf("%s = %v in /metrics but %d in /v1/stats", p.series, got, p.stats)
		}
	}
	return ""
}

// nodeCounters lists a server's counters that both views expose.
func nodeCounters(st server.StatsResponse) []counterPair {
	pairs := []counterPair{
		{"vcached_memo_hits_total", st.Memo.Hits},
		{"vcached_memo_misses_total", st.Memo.Misses},
		{"vcached_memo_evictions_total", st.Memo.Evictions},
		{"vcached_admission_shed_total", st.Admission.Shed},
		{"vcached_admission_degraded_total", st.Admission.Degraded},
		{"vcached_compute_cancelledJobs_total", st.Partial.CancelledJobs},
		{"vcached_compute_partialRefs_total", st.Partial.RefsCompleted},
	}
	if p := st.Persist; p.Enabled {
		pairs = append(pairs,
			counterPair{"vcached_persist_hits_total", p.Hits},
			counterPair{"vcached_persist_misses_total", p.Misses},
			counterPair{"vcached_persist_bytes_total", p.BytesAppended},
			counterPair{"vcached_persist_segments_total", p.SegmentsCreated},
			counterPair{"vcached_persist_compactions_total", p.Compactions},
			counterPair{"vcached_persist_corrupt_records_total", p.CorruptRecords},
			counterPair{"vcached_persist_torn_truncations_total", p.TornTruncations},
			counterPair{"vcached_persist_io_errors_total", p.IOErrors},
			counterPair{"vcached_persist_evicted_keys_total", p.EvictedKeys},
		)
	}
	return pairs
}

// coordCounters lists the coordinator's counters that both views
// expose, per-backend call counters included.
func coordCounters(st cluster.StatsResponse) []counterPair {
	pairs := []counterPair{
		{"vcached_coordinator_requests_total", st.Requests},
		{"vcached_coordinator_hedges_total", st.Hedges},
		{"vcached_coordinator_reroutes_total", st.Reroutes},
		{"vcached_coordinator_shed_total", st.Admission.Shed},
		{"vcached_coordinator_joins_total", st.Membership.Joins},
		{"vcached_coordinator_leaves_total", st.Membership.Leaves},
		{"vcached_coordinator_migrated_keys_total", st.Membership.MigratedKeys},
		{"vcached_coordinator_migrated_bytes_total", st.Membership.MigratedBytes},
		{"vcached_coordinator_migration_errors_total", st.Membership.MigrationErrors},
	}
	for _, b := range st.Backends {
		label := `{backend="` + b.URL + `"}`
		pairs = append(pairs,
			counterPair{"vcached_backend_requests_total" + label, b.Requests},
			counterPair{"vcached_backend_failures_total" + label, b.Failures},
		)
	}
	return pairs
}
