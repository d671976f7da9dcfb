package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/persist"
	"primecache/internal/trace"
)

// warmJob is the canonical request the warm-restart tests replay: a
// real simulation, heavy enough that recomputation would be visible in
// the pool counters.
func warmJob() SimulateRequest {
	return SimulateRequest{
		Cache:   cache.Spec{Kind: "assoc", Lines: 4096, Ways: 4},
		Pattern: trace.Pattern{Name: "strided", Stride: 17, N: 8192, Stream: 1},
		Passes:  2,
	}
}

// TestConditionalSimulate pins the conditional-GET contract on
// /v1/simulate: a strong quoted ETag on every 200, a bodiless 304 with
// the memoized-verdict header on a matching If-None-Match, and a full
// 200 on a stale validator.
func TestConditionalSimulate(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, _ := json.Marshal(warmJob())

	post := func(inm string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	resp, out := post("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status %d: %s", resp.StatusCode, out)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("200 response carries no ETag")
	}
	if !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("ETag %q is not a quoted strong validator", etag)
	}

	resp, out = post(etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match status %d, want 304", resp.StatusCode)
	}
	if len(out) != 0 {
		t.Errorf("304 carried a %d-byte body", len(out))
	}
	if got := resp.Header.Get(MemoizedHeader); got != "true" {
		t.Errorf("%s = %q, want true (the repeat is a memo hit)", MemoizedHeader, got)
	}
	if resp.Header.Get("ETag") != etag {
		t.Errorf("304 ETag %q differs from original %q", resp.Header.Get("ETag"), etag)
	}

	// A stale validator gets the full body again; a wildcard matches.
	resp, out = post(`"0000000000000000000000000000dead"`)
	if resp.StatusCode != http.StatusOK || len(out) == 0 {
		t.Fatalf("stale validator: status %d body %d bytes, want full 200", resp.StatusCode, len(out))
	}
	resp, _ = post("*")
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("wildcard If-None-Match status %d, want 304", resp.StatusCode)
	}
	// Weak validators never strong-match.
	resp, _ = post("W/" + etag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("weak validator status %d, want 200", resp.StatusCode)
	}
}

// TestConditionalModel pins the same contract on /v1/model, and that
// the memoized flag stays out of the hash: the first (unmemoized) and
// second (memoized) responses carry the same validator.
func TestConditionalModel(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := ModelRequest{Banks: 64, Tm: 64, B: 4096}

	resp, _ := postJSON(t, ts.URL+"/v1/model", req)
	first := resp.Header.Get("ETag")
	if first == "" {
		t.Fatal("model response carries no ETag")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/model", req)
	if second := resp.Header.Get("ETag"); second != first {
		t.Errorf("memoized repeat changed the ETag: %q then %q", first, second)
	}
}

// TestWarmRestartFromPersist is the tentpole's end-to-end proof: a job
// computed before a graceful shutdown is answered memoized by a fresh
// server over the same persist dir, with zero pool work.
func TestWarmRestartFromPersist(t *testing.T) {
	dir := t.TempDir()
	req := warmJob()

	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Options{Persist: store})
	resp, body := postJSON(t, ts1.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold simulate status %d: %s", resp.StatusCode, body)
	}
	var cold struct {
		SimulateResponse
		Memoized bool `json:"memoized"`
	}
	if err := json.Unmarshal(body, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Memoized {
		t.Fatal("first-ever request reported memoized")
	}
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// A brand-new process: fresh store handle, fresh server, cold memo.
	store2, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopening persist dir: %v", err)
	}
	if got := store2.Stats(); got.Keys == 0 || !got.SnapshotRestore {
		t.Fatalf("reopened store stats %+v, want warm keys via snapshot", got)
	}
	s2, ts2 := newTestServer(t, Options{Persist: store2})
	resp, body = postJSON(t, ts2.URL+"/v1/simulate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm simulate status %d: %s", resp.StatusCode, body)
	}
	var warm struct {
		SimulateResponse
		Memoized bool `json:"memoized"`
	}
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Memoized {
		t.Fatal("restarted server did not answer the prior job from the persist tier")
	}
	if warm.Stats != cold.Stats {
		t.Errorf("warm answer differs from cold: %+v vs %+v", warm.Stats, cold.Stats)
	}
	if n := s2.pool.completed.Value(); n != 0 {
		t.Errorf("warm hit burned %d pool jobs, want 0", n)
	}
	if st := store2.Stats(); st.Hits != 1 {
		t.Errorf("persist hits = %d, want 1", st.Hits)
	}
	// Promoted to the memo: the next repeat is a memory hit, not disk.
	if resp, body := postJSON(t, ts2.URL+"/v1/simulate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, body)
	}
	if st := store2.Stats(); st.Hits != 1 {
		t.Errorf("memo promotion failed: persist hits = %d after repeat, want still 1", st.Hits)
	}
}

// TestStatsSchema2 pins the versioned stats surface: "schema": 2, the
// uniform blocks, the persist block tracking the disk tier, and the
// schema-1 deprecation announcement headers.
func TestStatsSchema2(t *testing.T) {
	store, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Persist: store})
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/simulate", warmJob()); resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Deprecation") != StatsSchema1Deprecation {
		t.Errorf("Deprecation header = %q, want %q", resp.Header.Get("Deprecation"), StatsSchema1Deprecation)
	}
	if resp.Header.Get("Sunset") != StatsSchema1Sunset {
		t.Errorf("Sunset header = %q, want %q", resp.Header.Get("Sunset"), StatsSchema1Sunset)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Schema != StatsSchemaVersion {
		t.Errorf("schema = %d, want %d", stats.Schema, StatsSchemaVersion)
	}
	if stats.Memo.Hits != 1 || stats.Memo.Misses != 1 {
		t.Errorf("memo block = %+v, want 1 hit / 1 miss", stats.Memo)
	}
	if stats.Memo.HitRatio != 0.5 {
		t.Errorf("memo hitRatio = %v, want 0.5", stats.Memo.HitRatio)
	}
	if !stats.Persist.Enabled {
		t.Error("persist block disabled with a store attached")
	}
	if stats.Persist.Keys != 1 {
		t.Errorf("persist keys = %d, want 1", stats.Persist.Keys)
	}
	// The projection the typed client serves agrees with the raw body.
	v2 := stats.V2()
	if v2.Schema != StatsSchemaVersion || v2.Persist.Keys != 1 || v2.Memo.Hits != 1 {
		t.Errorf("V2 projection = %+v, disagrees with response", v2)
	}
}

// TestReadyzWarmKeys checks readiness advertises the warm working set:
// zero on a cold empty server, positive once the tiers hold results.
func TestReadyzWarmKeys(t *testing.T) {
	store, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Persist: store})

	get := func() ReadyzResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rz ReadyzResponse
		if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
			t.Fatal(err)
		}
		return rz
	}
	if rz := get(); rz.WarmKeys != 0 {
		t.Errorf("cold server advertises %d warm keys", rz.WarmKeys)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/simulate", warmJob()); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	if rz := get(); rz.WarmKeys != 1 {
		t.Errorf("warmed server advertises %d warm keys, want 1", rz.WarmKeys)
	}
}

// TestMetricsExposePersistFamilies checks the vcached_persist_*
// families appear on /metrics exactly when the disk tier is enabled.
func TestMetricsExposePersistFamilies(t *testing.T) {
	store, err := persist.Open(persist.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Persist: store})
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/simulate", warmJob()); resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, fam := range []string{
		"vcached_persist_hits_total",
		"vcached_persist_misses_total",
		"vcached_persist_bytes_total",
		"vcached_persist_segments_total",
		"vcached_persist_compactions_total",
		"vcached_persist_corrupt_records_total",
		"vcached_persist_keys",
		"vcached_persist_disk_bytes",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}

	// And a memory-only server exposes none of them (pinning the
	// metrics.golden protection).
	_, ts2 := newTestServer(t, Options{})
	resp2, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	data2, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data2), "vcached_persist_") {
		t.Error("memory-only server exposes persist families")
	}
}
