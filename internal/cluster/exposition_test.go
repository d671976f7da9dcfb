package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"primecache/internal/obs"
	"primecache/internal/server"
)

// TestCoordinatorMetricsExposition scrapes the coordinator after a
// sweep and validates the exposition end to end: parses as Prometheus
// text format, carries the per-backend families with their base-URL
// labels (the '://' forces the label-escaping path on every scrape),
// and the backend request counters account for the scattered legs.
func TestCoordinatorMetricsExposition(t *testing.T) {
	lc, err := StartLocal(3, server.Options{Workers: 2}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	postSweep(t, lc.URL(), traceSweep())

	resp, err := http.Get(lc.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
		t.Fatalf("/metrics content type = %q, want %q", got, obs.PromContentType)
	}
	if err := obs.CheckExposition(body); err != nil {
		t.Fatalf("coordinator /metrics is not valid Prometheus text: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"vcached_coordinator_requests_total 1",
		"vcached_coordinator_healthy_backends 3",
		"vcached_backend_latency_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	for _, b := range lc.Backends {
		if !strings.Contains(text, `vcached_backend_requests_total{backend="`+b.URL()+`"}`) {
			t.Errorf("/metrics has no requests counter for backend %s:\n%s", b.URL(), text)
		}
	}
}

// TestCoordinatorTracesEndpointWithoutTracer pins the 404 contract on
// an untraced coordinator.
func TestCoordinatorTracesEndpointWithoutTracer(t *testing.T) {
	lc, err := StartLocal(1, server.Options{}, Options{ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	resp, err := http.Get(lc.URL() + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/debug/traces without a tracer: status %d, want 404", resp.StatusCode)
	}
	var env server.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("404 body is not the unified error envelope: %v", err)
	}
	if env.Error == nil || env.Error.Code != server.CodeNotFound {
		t.Fatalf("envelope = %+v, want code %s", env, server.CodeNotFound)
	}
}
