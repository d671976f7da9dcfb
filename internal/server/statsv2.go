package server

import "primecache/internal/persist"

// Schema 2 of /v1/stats: the memo, persist, admission, and partial
// blocks below are shaped identically on the single-node server and
// the cluster coordinator, so one dashboard (or one typed client
// decode) works against either tier. The response carries
// "schema": 2; the schema-1 top-level shapes are kept for one release
// and announced via Deprecation/Sunset headers on the endpoint.

// StatsSchemaVersion is the current /v1/stats schema.
const StatsSchemaVersion = 2

// Deprecation metadata for the schema-1 field layout, served as HTTP
// response headers on /v1/stats (RFC 8594 Sunset; draft Deprecation).
const (
	StatsSchema1Deprecation = "Sat, 08 Aug 2026 00:00:00 GMT"
	StatsSchema1Sunset      = "Sat, 07 Nov 2026 00:00:00 GMT"
)

// MemoBlock is the memo tier's stats block (wire-compatible with the
// schema-1 "memo" object).
type MemoBlock struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Entries   int     `json:"entries"`
	Capacity  int     `json:"capacity"`
	HitRatio  float64 `json:"hitRatio"`
}

// PersistBlock is the disk tier's stats block; Enabled false means the
// server runs memory-only and every counter is zero.
type PersistBlock struct {
	Enabled bool `json:"enabled"`
	persist.Stats
}

// AdmissionBlock is the overload valve's stats block (wire-compatible
// with the schema-1 "admission" object).
type AdmissionBlock struct {
	Capacity int     `json:"capacity"`
	Queued   int64   `json:"queued"`
	Shed     uint64  `json:"shed"`
	Degraded uint64  `json:"degraded"`
	Pressure float64 `json:"pressure"`
}

// PartialBlock accounts work burned by jobs cancelled mid-simulation
// (wire-compatible with the schema-1 "partial" object).
type PartialBlock struct {
	CancelledJobs uint64 `json:"cancelledJobs"`
	RefsCompleted uint64 `json:"refsCompleted"`
}

// StatsV2 is the uniform cross-tier view of a stats response — the
// schema-2 contract without the tier-specific extras (pool, cluster
// routing). Client dashboards should consume this.
type StatsV2 struct {
	Schema    int            `json:"schema"`
	Memo      MemoBlock      `json:"memo"`
	Persist   PersistBlock   `json:"persist"`
	Admission AdmissionBlock `json:"admission"`
	Partial   PartialBlock   `json:"partial"`
}

// V2 projects the full server response onto the uniform schema-2 view.
func (r StatsResponse) V2() StatsV2 {
	return StatsV2{
		Schema:    r.Schema,
		Memo:      r.Memo,
		Persist:   r.Persist,
		Admission: r.Admission,
		Partial:   r.Partial,
	}
}

// SetDeprecationHeaders announces the schema-1 sunset on a /v1/stats
// response. The coordinator calls it too — both tiers deprecate the
// schema-1 layout on the same clock.
func SetDeprecationHeaders(set func(key, value string)) {
	set("Deprecation", StatsSchema1Deprecation)
	set("Sunset", StatsSchema1Sunset)
}
