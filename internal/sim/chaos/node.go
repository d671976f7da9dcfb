// Package chaos is the deterministic cluster-simulation harness: it
// deploys an in-process vcached cluster behind fault gates, applies a
// seeded sim.Schedule of crashes, restarts, partitions, latency spikes,
// and clock skew, runs a sweep after every step, and checks the
// distributed-systems invariants the cluster must keep — no lost or
// duplicated jobs, byte-identical results against a single-node oracle,
// memoizer locality across failover, admission-gauge conservation at
// quiesce, trace stitching across every hop (including failover hops),
// /v1/stats and /metrics agreeing on every counter both expose, and no
// goroutine leaks at teardown. Every run's event log is a pure
// function of its seed, so any violation is replayable from the seed
// alone.
package chaos

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"primecache/internal/obs"
	"primecache/internal/persist"
	"primecache/internal/server"
	"primecache/internal/sim"
)

// gate sits between a node's listener and its handler, modelling the
// network path the coordinator sees: severed while the node is crashed
// or partitioned, slowed during a latency spike, transparent otherwise.
type gate struct {
	mu      sync.Mutex
	down    bool
	latency time.Duration
	inner   http.Handler
}

func (g *gate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	down, lat, inner := g.down, g.latency, g.inner
	g.mu.Unlock()
	if down || inner == nil {
		// Sever the connection without an HTTP response, like a dead
		// host: the client sees a transport failure, not an envelope.
		panic(http.ErrAbortHandler)
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	inner.ServeHTTP(w, r)
}

func (g *gate) set(fn func(*gate)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fn(g)
}

// node is one simulated vcached backend: a real server.Server behind a
// gate, on a skewable clock, restartable in place (the listener — and
// therefore the URL the ring hashes — survives a crash; the server's
// memory state does not, while its persist directory, when configured,
// survives like a disk would).
type node struct {
	idx     int
	opts    server.Options
	dir     string // persist directory surviving restarts; "" = memory-only
	gate    *gate
	ts      *httptest.Server
	setSkew func(time.Duration)

	mu  sync.Mutex
	srv *server.Server
	up  bool
	gen int // boot generation, bumped on every start
}

// newNode boots one backend. nopts is copied; its Clock is replaced by
// the node's own skewable clock. A non-empty dir gives the node a
// disk-backed memo tier whose contents outlive crash/restart cycles.
func newNode(idx int, nopts server.Options, dir string) *node {
	n := &node{idx: idx, opts: nopts, dir: dir, gate: &gate{}}
	n.opts.Clock, n.setSkew = sim.NewOffset(sim.Real)
	n.ts = httptest.NewServer(n.gate)
	n.start()
	return n
}

// start boots a fresh server behind the gate (initial boot and every
// restart): empty memoizer, zeroed metrics, fresh tracer —
// crash-restart loses memory state. A persist-configured node reopens
// its directory, running the store's crash recovery against whatever
// the dying incarnation left on disk. The tracer's origin carries the
// boot generation so span IDs from a pre-crash incarnation can never
// collide with post-restart ones inside the same stitched trace.
func (n *node) start() {
	n.mu.Lock()
	n.gen++
	gen := n.gen
	n.mu.Unlock()
	opts := n.opts
	opts.Tracer = obs.NewTracer(obs.TracerOptions{
		Origin:   fmt.Sprintf("node-%d.%d", n.idx, gen),
		Clock:    opts.Clock,
		Capacity: 1024,
	})
	if n.dir != "" {
		store, err := persist.Open(persist.Options{Dir: n.dir})
		if err != nil {
			// Open fails open on data corruption (that is the store's
			// contract, exercised by its own tests); an error here means
			// the harness itself lost its temp dir — unrecoverable.
			panic(fmt.Sprintf("chaos: node %d reopening persist dir: %v", n.idx, err))
		}
		opts.Persist = store
	}
	srv := server.New(opts)
	n.mu.Lock()
	n.srv = srv
	n.up = true
	n.mu.Unlock()
	n.gate.set(func(g *gate) { g.down = false; g.inner = srv.Handler() })
}

// crash kills the process: the gate severs new requests, in-flight
// connections are cut, and the server (memo, pool, metrics) is gone.
func (n *node) crash() {
	n.gate.set(func(g *gate) { g.down = true; g.inner = nil })
	n.mu.Lock()
	srv := n.srv
	n.srv = nil
	n.up = false
	n.mu.Unlock()
	n.ts.CloseClientConnections()
	if srv != nil {
		srv.Close()
	}
}

// decommission retires the node after it has left the cluster: the
// process dies and — unlike a crash, where the disk survives — its
// persist directory is wiped. The listener (and so the URL identity)
// stays, so a later join reuses the same ring name with genuinely cold
// state.
func (n *node) decommission() {
	n.crash()
	if n.dir != "" {
		if err := os.RemoveAll(n.dir); err != nil {
			panic(fmt.Sprintf("chaos: node %d wiping persist dir: %v", n.idx, err))
		}
		if err := os.MkdirAll(n.dir, 0o755); err != nil {
			panic(fmt.Sprintf("chaos: node %d recreating persist dir: %v", n.idx, err))
		}
	}
}

// partition cuts the coordinator↔node link but leaves the process —
// and its memoizer — running.
func (n *node) partition() {
	n.gate.set(func(g *gate) { g.down = true })
	n.ts.CloseClientConnections()
}

// heal reconnects a partitioned node.
func (n *node) heal() {
	n.gate.set(func(g *gate) { g.down = false })
}

// spike sets the added per-request service latency.
func (n *node) spike(d time.Duration) {
	n.gate.set(func(g *gate) { g.latency = d })
}

// server returns the live server, or nil while crashed.
func (n *node) server() *server.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// live reports whether the process is running (a partitioned node is
// live; a crashed one is not).
func (n *node) live() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.up
}

// close tears the node down for good.
func (n *node) close() {
	n.ts.CloseClientConnections()
	n.ts.Close()
	n.mu.Lock()
	srv := n.srv
	n.srv = nil
	n.up = false
	n.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}
