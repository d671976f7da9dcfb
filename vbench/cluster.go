package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"primecache/internal/client"
	"primecache/internal/cluster"
	"primecache/internal/obs"
	"primecache/internal/persist"
	"primecache/internal/server"
)

// backendCount is the size of the in-process cluster.
const backendCount = 3

// clusterConfig shapes one in-process cluster.
type clusterConfig struct {
	// memoEntries is each backend's memo size; 0 keeps the default.
	memoEntries int
	// segmentBytes and maxBytes size each backend's persist store; 0
	// keeps the defaults.
	segmentBytes, maxBytes int64
	// traced gives the coordinator and every backend a tracer whose
	// ring holds every trace of the run.
	traced bool
}

// benchCluster is a coordinator in front of backendCount vcached
// backends, each on a loopback listener with its own persist store.
type benchCluster struct {
	dir      string
	backends []*server.Server
	http     []*httptest.Server // backends, then the coordinator
	coord    *cluster.Coordinator
	tracers  []*obs.Tracer // coordinator, then backends; nil when untraced
	urls     []string      // backend base URLs
	coordURL string
}

// hedgeFloor is the least time the coordinator waits on a backend
// before hedging a single-job request to the next replica. All backends
// share the benchmark's CPUs, so a hedge cannot finish sooner than the
// primary; the floor sits above the slowest job's normal latency, and
// hedges fire only on a stalled backend.
const hedgeFloor = 500 * time.Millisecond

// traceRing is the finished-trace capacity of a traced run's tracers,
// large enough to keep every request of a run.
const traceRing = 1 << 17

// startCluster builds the cluster under dir, which it creates and which
// close removes.
func startCluster(dir string, cfg clusterConfig) (*benchCluster, error) {
	c := &benchCluster{dir: dir}
	var coordTracer *obs.Tracer
	if cfg.traced {
		coordTracer = obs.NewTracer(obs.TracerOptions{Origin: "coordinator", Capacity: traceRing})
		c.tracers = append(c.tracers, coordTracer)
	}
	for i := 0; i < backendCount; i++ {
		store, err := persist.Open(persist.Options{
			Dir:          filepath.Join(dir, fmt.Sprintf("backend-%d", i)),
			SegmentBytes: cfg.segmentBytes,
			MaxBytes:     cfg.maxBytes,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		opts := server.Options{MemoEntries: cfg.memoEntries, Persist: store}
		if cfg.traced {
			opts.Tracer = obs.NewTracer(obs.TracerOptions{Origin: fmt.Sprintf("backend-%d", i), Capacity: traceRing})
			c.tracers = append(c.tracers, opts.Tracer)
		}
		srv := server.New(opts)
		ts := httptest.NewServer(srv.Handler())
		c.backends = append(c.backends, srv)
		c.http = append(c.http, ts)
		c.urls = append(c.urls, ts.URL)
	}
	coord, err := cluster.New(cluster.Options{Backends: c.urls, Tracer: coordTracer, HedgeAfter: hedgeFloor})
	if err != nil {
		c.close()
		return nil, err
	}
	c.coord = coord
	ts := httptest.NewServer(coord.Handler())
	c.http = append(c.http, ts)
	c.coordURL = ts.URL
	return c, nil
}

// close stops every listener and server and removes the cluster's
// directory. Backends stop without draining (their persist stores are
// killed, not snapshotted): nothing reads them again.
func (c *benchCluster) close() {
	for _, ts := range c.http {
		ts.Close()
	}
	if c.coord != nil {
		c.coord.Close()
	}
	for _, srv := range c.backends {
		srv.Close()
	}
	os.RemoveAll(c.dir)
}

// tierStats sums the backends' schema-2 stats blocks.
type tierStats struct {
	memoHits, memoMisses       uint64
	shed, degraded             uint64
	persistHits, persistMisses uint64
	persistBytes, compactions  uint64
	jobs                       [backendCount]uint64 // memo lookups per backend
}

func (c *benchCluster) tierStats(ctx context.Context) (tierStats, error) {
	var t tierStats
	for i, u := range c.urls {
		cl := client.New(u, client.WithRetries(0))
		st, err := cl.StatsV2(ctx)
		cl.Close()
		if err != nil {
			return t, fmt.Errorf("stats of backend %d: %w", i, err)
		}
		t.memoHits += st.Memo.Hits
		t.memoMisses += st.Memo.Misses
		t.jobs[i] = st.Memo.Hits + st.Memo.Misses
		t.shed += st.Admission.Shed
		t.degraded += st.Admission.Degraded
		t.persistHits += st.Persist.Hits
		t.persistMisses += st.Persist.Misses
		t.persistBytes += st.Persist.BytesAppended
		t.compactions += st.Persist.Compactions
	}
	return t, nil
}

// sub returns the counters accumulated between before and t.
func (t tierStats) sub(before tierStats) tierStats {
	d := tierStats{
		memoHits: t.memoHits - before.memoHits, memoMisses: t.memoMisses - before.memoMisses,
		shed: t.shed - before.shed, degraded: t.degraded - before.degraded,
		persistHits: t.persistHits - before.persistHits, persistMisses: t.persistMisses - before.persistMisses,
		persistBytes: t.persistBytes - before.persistBytes, compactions: t.compactions - before.compactions,
	}
	for i := range d.jobs {
		d.jobs[i] = t.jobs[i] - before.jobs[i]
	}
	return d
}

// coordStats fetches the coordinator's own /v1/stats body.
func (c *benchCluster) coordStats(ctx context.Context) (*cluster.StatsResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.coordURL+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("coordinator stats: %w", err)
	}
	defer resp.Body.Close()
	var st cluster.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("coordinator stats: %w", err)
	}
	return &st, nil
}
