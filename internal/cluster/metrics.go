package cluster

// registerMetrics registers the coordinator's families on c.reg and
// resolves its counters once, so no event looks a metric up by name.
// The healthy-backend count and the ring version are owned by the
// health checker and the membership state and are read at scrape time.
func (c *Coordinator) registerMetrics() {
	reg := c.reg
	c.requests = reg.Counter("vcached_coordinator_requests_total", "Requests accepted by the coordinator.")
	c.shed = reg.Counter("vcached_coordinator_shed_total", "Requests shed by the coordinator's admission valve.")
	c.hedges = reg.Counter("vcached_coordinator_hedges_total", "Hedged backend calls launched.")
	c.reroutes = reg.Counter("vcached_coordinator_reroutes_total", "Jobs rerouted to another replica after a failure.")
	c.joins = reg.Counter("vcached_coordinator_joins_total", "Completed backend joins.")
	c.leaves = reg.Counter("vcached_coordinator_leaves_total", "Completed backend leaves.")
	c.migratedKeys = reg.Counter("vcached_coordinator_migrated_keys_total", "Warm-state records moved by membership changes.")
	c.migratedBytes = reg.Counter("vcached_coordinator_migrated_bytes_total", "Warm-state value bytes moved by membership changes.")
	c.migrationErrors = reg.Counter("vcached_coordinator_migration_errors_total", "Failed or skipped migration transfers.")
	reg.GaugeFunc("vcached_coordinator_healthy_backends", "Backends currently passing readiness probes.", func() float64 { return float64(c.health.healthyCount()) })
	reg.GaugeFunc("vcached_coordinator_ring_version", "Atomic ring swaps since the coordinator booted.", func() float64 { return float64(c.RingVersion()) })
	c.backendRequests = reg.CounterVec("vcached_backend_requests_total", "Calls issued to the backend.", "backend")
	c.backendFailures = reg.CounterVec("vcached_backend_failures_total", "Failed calls to the backend.", "backend")
	c.backendInflight = reg.GaugeVec("vcached_backend_inflight", "Calls in flight to the backend.", "backend")
	c.backendLatency = reg.HistogramVec("vcached_backend_latency_seconds", "Observed call latency per backend in seconds.", "backend")
}

// bindBackend gives b its per-backend children as it enters the ring;
// unbindBackend drops them as it leaves, so the per-backend samples
// follow the current ring. Calls still in flight to a leaver keep
// updating its (now unexposed) children.
func (c *Coordinator) bindBackend(b *backendState) {
	b.requests = c.backendRequests.With(b.url)
	b.failures = c.backendFailures.With(b.url)
	b.inflight = c.backendInflight.With(b.url)
	b.latency = c.backendLatency.With(b.url)
}

func (c *Coordinator) unbindBackend(url string) {
	c.backendRequests.Delete(url)
	c.backendFailures.Delete(url)
	c.backendInflight.Delete(url)
	c.backendLatency.Delete(url)
}
