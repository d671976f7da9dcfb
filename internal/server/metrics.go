package server

import (
	"primecache/internal/obs"
	"primecache/internal/persist"
)

// serverMetrics are the server's registry children, resolved once in
// New so that no event looks a metric up by name. The pool and the
// admission valve register and hold their own.
type serverMetrics struct {
	requests, errors *obs.Vec[obs.Counter]
	latency          *obs.Vec[obs.Histogram]
	inflight         *obs.Gauge

	degraded, cancelledJobs, partialRefs, notModified *obs.Counter

	// Disk-tier counters; nil when the server runs memory-only, so its
	// exposition never mentions the persist families.
	decodeErrors, storeErrors   *obs.Counter
	exportErrors, importErrors  *obs.Counter
	exportedKeys, exportedBytes *obs.Counter
	importedKeys, importedBytes *obs.Counter
}

// registerMetrics registers the server's own families on s.reg: the
// per-endpoint request families, the event counters, and read
// functions over the memo, the persist tier and the uptime clock.
func (s *Server) registerMetrics() {
	reg := s.reg
	s.m = serverMetrics{
		requests:      reg.CounterVec("vcached_requests_total", "Requests received, by endpoint.", "endpoint"),
		errors:        reg.CounterVec("vcached_errors_total", "Requests answered with an error status, by endpoint.", "endpoint"),
		latency:       reg.HistogramVec("vcached_request_seconds", "Request latency by endpoint in seconds.", "endpoint"),
		inflight:      reg.Gauge("vcached_inflight", "Gauge inflight."),
		degraded:      reg.EventCounter("vcached_admission_degraded_total", "Monotonic counter admission.degraded."),
		cancelledJobs: reg.EventCounter("vcached_compute_cancelledJobs_total", "Monotonic counter compute.cancelledJobs."),
		partialRefs:   reg.EventCounter("vcached_compute_partialRefs_total", "Monotonic counter compute.partialRefs."),
		notModified:   reg.EventCounter("vcached_etag_notModified_total", "Monotonic counter etag.notModified."),
	}
	reg.CounterFunc("vcached_memo_hits_total", "Memoizer hits.", func() float64 { return float64(s.memo.hits.Value()) })
	reg.CounterFunc("vcached_memo_misses_total", "Memoizer misses.", func() float64 { return float64(s.memo.misses.Value()) })
	reg.CounterFunc("vcached_memo_evictions_total", "Memoizer LRU evictions.", func() float64 { return float64(s.memo.evictions.Value()) })
	reg.GaugeFunc("vcached_memo_entries", "Memoizer resident entries.", func() float64 { return float64(s.memo.Len()) })
	reg.GaugeFunc("vcached_memo_capacity", "Memoizer capacity (0 when disabled).", func() float64 { return float64(s.memo.cap) })
	start := s.clock.Now()
	reg.GaugeFunc("vcached_uptime_seconds", "Seconds since the metrics registry was created.", func() float64 { return s.clock.Since(start).Seconds() })
	if s.persist != nil {
		s.registerPersistMetrics(s.persist)
	}
}

// registerPersistMetrics adds the vcached_persist_* families: the disk
// tier's own stats, read at scrape time, and the server's counters for
// what the tier failed to decode or store and what migration moved.
func (s *Server) registerPersistMetrics(p *persist.Store) {
	reg := s.reg
	reg.CounterFunc("vcached_persist_hits_total", "Persist-tier lookup hits.", func() float64 { return float64(p.Stats().Hits) })
	reg.CounterFunc("vcached_persist_misses_total", "Persist-tier lookup misses.", func() float64 { return float64(p.Stats().Misses) })
	reg.CounterFunc("vcached_persist_bytes_total", "Bytes appended to the persist log.", func() float64 { return float64(p.Stats().BytesAppended) })
	reg.CounterFunc("vcached_persist_segments_total", "Persist log segments created.", func() float64 { return float64(p.Stats().SegmentsCreated) })
	reg.CounterFunc("vcached_persist_compactions_total", "Persist log compaction passes.", func() float64 { return float64(p.Stats().Compactions) })
	reg.CounterFunc("vcached_persist_corrupt_records_total", "Records dropped for failing checksum or decode verification.", func() float64 { return float64(p.Stats().CorruptRecords) })
	reg.CounterFunc("vcached_persist_torn_truncations_total", "Torn log tails truncated during recovery.", func() float64 { return float64(p.Stats().TornTruncations) })
	reg.CounterFunc("vcached_persist_io_errors_total", "Persist-tier I/O errors.", func() float64 { return float64(p.Stats().IOErrors) })
	reg.CounterFunc("vcached_persist_evicted_keys_total", "Keys dropped by the persist disk budget.", func() float64 { return float64(p.Stats().EvictedKeys) })
	reg.GaugeFunc("vcached_persist_keys", "Live keys in the persist index.", func() float64 { return float64(p.Stats().Keys) })
	reg.GaugeFunc("vcached_persist_disk_bytes", "Bytes currently on disk across live segments.", func() float64 { return float64(p.Stats().DiskBytes) })
	s.m.decodeErrors = reg.EventCounter("vcached_persist_decodeErrors_total", "Monotonic counter persist.decodeErrors.")
	s.m.storeErrors = reg.EventCounter("vcached_persist_storeErrors_total", "Monotonic counter persist.storeErrors.")
	s.m.exportErrors = reg.EventCounter("vcached_persist_exportErrors_total", "Monotonic counter persist.exportErrors.")
	s.m.exportedKeys = reg.EventCounter("vcached_persist_exportedKeys_total", "Monotonic counter persist.exportedKeys.")
	s.m.exportedBytes = reg.EventCounter("vcached_persist_exportedBytes_total", "Monotonic counter persist.exportedBytes.")
	s.m.importErrors = reg.EventCounter("vcached_persist_importErrors_total", "Monotonic counter persist.importErrors.")
	s.m.importedKeys = reg.EventCounter("vcached_persist_importedKeys_total", "Monotonic counter persist.importedKeys.")
	s.m.importedBytes = reg.EventCounter("vcached_persist_importedBytes_total", "Monotonic counter persist.importedBytes.")
}
