package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != PromContentType {
		t.Fatalf("scrape: status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if err := CheckExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("scrape is not valid exposition: %v\n%s", err, rec.Body)
	}
	return rec.Body.String()
}

// TestRegistryExposition pins what a scrape shows: labelled children in
// creation order, read functions evaluated at scrape time, an event
// counter only from its first count, and a deleted child gone.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("x_requests_total", "Requests.", "endpoint")
	reqs.With("sweep").Add(2)
	reqs.With("simulate").Inc()
	r.HistogramVec("x_seconds", "Latency.", "endpoint").With("sweep").Observe(50 * time.Microsecond)
	events := r.EventCounter("x_events_total", "Rare events.")
	read := 7.0
	r.GaugeFunc("x_owned", "Owned elsewhere.", func() float64 { return read })

	body := scrape(t, r)
	for _, want := range []string{
		"x_requests_total{endpoint=\"sweep\"} 2\nx_requests_total{endpoint=\"simulate\"} 1\n",
		`x_seconds_bucket{endpoint="sweep",le="0.0001"} 1`,
		"x_owned 7\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "x_events_total") {
		t.Errorf("event counter exposed before its first count:\n%s", body)
	}

	events.Inc()
	read = 8
	reqs.Delete("sweep")
	body = scrape(t, r)
	for _, want := range []string{"x_events_total 1\n", "x_owned 8\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, `x_requests_total{endpoint="sweep"}`) {
		t.Errorf("deleted child still exposed:\n%s", body)
	}
	if got := r.Value("x_requests_total", "simulate"); got != 1 {
		t.Errorf("Value(simulate) = %v, want 1", got)
	}
	if got := r.Value("x_seconds", "sweep"); got != 1 {
		t.Errorf("Value of a histogram = %v, want its count 1", got)
	}
	if got := r.Value("x_missing_total"); got != 0 {
		t.Errorf("Value of an unknown series = %v, want 0", got)
	}
}

func TestRegistryRejectsDuplicateFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "First.")
	defer func() {
		if recover() == nil {
			t.Error("registering x_total twice did not panic")
		}
	}()
	r.Gauge("x_total", "Second.")
}

// TestRegistryConcurrentChildren creates, updates and deletes children
// while scrapes run; under -race this is the proof that child lookup
// and deletion are synchronised with the exposition.
func TestRegistryConcurrentChildren(t *testing.T) {
	r := NewRegistry()
	calls := r.CounterVec("x_calls_total", "Calls.", "backend")
	const writers, perWriter = 4, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.ServeHTTP(httptest.NewRecorder(), nil)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				calls.With("stable").Inc()
				calls.With("churn").Inc()
				calls.Delete("churn")
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()
	if got := r.Value("x_calls_total", "stable"); got != writers*perWriter {
		t.Errorf("stable = %v, want %d", got, writers*perWriter)
	}
}
