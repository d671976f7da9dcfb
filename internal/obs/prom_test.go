package obs

import (
	"bytes"
	"strings"
	"testing"
)

func sampleFamilies() []Family {
	return []Family{
		{
			Name: "vcached_requests_total", Help: "Requests per handler.", Kind: KindCounter,
			Samples: []Sample{
				{Labels: []Label{{Name: "handler", Value: "simulate"}}, Value: 42},
				{Labels: []Label{{Name: "handler", Value: "sweep"}}, Value: 7},
			},
		},
		{
			Name: "vcached_inflight", Help: "In-flight requests.", Kind: KindGauge,
			Samples: []Sample{{Value: 3}},
		},
		{
			Name: "vcached_latency_seconds", Help: `Latency with "quoted" help \ and such.`, Kind: KindHistogram,
			Samples: []Sample{{
				Labels: []Label{{Name: "backend", Value: `http://127.0.0.1:1234/x"y\z`}},
				Hist: &HistValue{
					Edges:     []float64{0.0001, 0.001, 0.01},
					CumCounts: []uint64{5, 9, 12, 15},
					Sum:       0.0421,
				},
			}},
		},
	}
}

func TestWritePromRoundTripsThroughChecker(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, sampleFamilies()); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE vcached_requests_total counter",
		"# TYPE vcached_latency_seconds histogram",
		`vcached_requests_total{handler="simulate"} 42`,
		`vcached_latency_seconds_bucket{backend="http://127.0.0.1:1234/x\"y\\z",le="+Inf"} 15`,
		"vcached_latency_seconds_count{", // count carries the labels too
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("CheckExposition rejected our own output: %v\n%s", err, out)
	}
}

func TestWritePromSortsFamilies(t *testing.T) {
	var buf bytes.Buffer
	fams := []Family{
		{Name: "zzz", Kind: KindGauge, Samples: []Sample{{Value: 1}}},
		{Name: "aaa", Kind: KindGauge, Samples: []Sample{{Value: 2}}},
	}
	if err := WriteProm(&buf, fams); err != nil {
		t.Fatal(err)
	}
	if strings.Index(buf.String(), "aaa") > strings.Index(buf.String(), "zzz") {
		t.Fatalf("families not sorted:\n%s", buf.String())
	}
	if fams[0].Name != "zzz" {
		t.Fatal("WriteProm mutated the caller's slice order")
	}
}

func TestWritePromRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		fams []Family
	}{
		{"bad metric name", []Family{{Name: "has space", Kind: KindGauge}}},
		{"bad label name", []Family{{Name: "ok", Kind: KindGauge,
			Samples: []Sample{{Labels: []Label{{Name: "le-bad", Value: "x"}}, Value: 1}}}}},
		{"hist without data", []Family{{Name: "h", Kind: KindHistogram, Samples: []Sample{{Value: 1}}}}},
		{"hist count/edge mismatch", []Family{{Name: "h", Kind: KindHistogram,
			Samples: []Sample{{Hist: &HistValue{Edges: []float64{1}, CumCounts: []uint64{1}}}}}}},
		{"hist edges not ascending", []Family{{Name: "h", Kind: KindHistogram,
			Samples: []Sample{{Hist: &HistValue{Edges: []float64{2, 1}, CumCounts: []uint64{1, 2, 3}}}}}}},
		{"hist counts decreasing", []Family{{Name: "h", Kind: KindHistogram,
			Samples: []Sample{{Hist: &HistValue{Edges: []float64{1, 2}, CumCounts: []uint64{5, 3, 9}}}}}}},
		{"hist inf below last", []Family{{Name: "h", Kind: KindHistogram,
			Samples: []Sample{{Hist: &HistValue{Edges: []float64{1}, CumCounts: []uint64{5, 3}}}}}}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := WriteProm(&buf, c.fams); err == nil {
			t.Errorf("%s: WriteProm accepted invalid input", c.name)
		}
	}
}

func TestCheckExpositionRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"no TYPE", "foo 1\n"},
		{"bad name", "# TYPE 1foo gauge\n1foo 1\n"},
		{"bad type", "# TYPE foo widget\nfoo 1\n"},
		{"duplicate TYPE", "# TYPE foo gauge\n# TYPE foo gauge\nfoo 1\n"},
		{"bad value", "# TYPE foo gauge\nfoo one\n"},
		{"bad label name", "# TYPE foo gauge\nfoo{2x=\"v\"} 1\n"},
		{"unquoted label", "# TYPE foo gauge\nfoo{x=v} 1\n"},
		{"unterminated label", "# TYPE foo gauge\nfoo{x=\"v} 1\n"},
		{"illegal escape", "# TYPE foo gauge\nfoo{x=\"a\\tb\"} 1\n"},
		{"hist as plain sample", "# TYPE h histogram\nh 1\n"},
		{"hist missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n"},
		{"hist not monotone", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"hist count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n"},
		{"hist missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n"},
		{"hist missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\n"},
		{"hist bucket without le", "# TYPE h histogram\nh_bucket 5\nh_sum 1\nh_count 5\n"},
		{"duplicate le", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
	}
	for _, c := range cases {
		if err := CheckExposition([]byte(c.body)); err == nil {
			t.Errorf("%s: CheckExposition accepted malformed payload:\n%s", c.name, c.body)
		}
	}
}

func TestCheckExpositionAcceptsValid(t *testing.T) {
	body := strings.Join([]string{
		"# a free-standing comment",
		"# HELP foo A gauge.",
		"# TYPE foo gauge",
		`foo{x="a\\b\"c\nd"} 1.5`,
		"# TYPE bar counter",
		"bar 0 1700000000000",
		"# TYPE h histogram",
		`h_bucket{node="a",le="0.001"} 2`,
		`h_bucket{node="a",le="+Inf"} 4`,
		`h_sum{node="a"} 0.01`,
		`h_count{node="a"} 4`,
		`h_bucket{node="b",le="0.001"} 0`,
		`h_bucket{node="b",le="+Inf"} 0`,
		`h_sum{node="b"} 0`,
		`h_count{node="b"} 0`,
		"",
	}, "\n")
	if err := CheckExposition([]byte(body)); err != nil {
		t.Fatalf("CheckExposition rejected valid payload: %v", err)
	}
}

func TestEscapeLabelRoundTrip(t *testing.T) {
	nasty := "a\\b\"c\nd,e{f}g"
	escaped := escapeLabel(nasty)
	got, rest, err := parseQuoted(`"`+escaped+`"`, 1)
	if err != nil || rest != "" {
		t.Fatalf("parseQuoted failed: %v rest=%q", err, rest)
	}
	if got != nasty {
		t.Fatalf("round trip: %q -> %q -> %q", nasty, escaped, got)
	}
}
