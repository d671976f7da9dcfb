package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"primecache/internal/sim"
)

// TestMeasureCountsIterations checks the runner's batching contract: one
// untimed warm-up call, then doubling timed batches, reporting only the
// final batch. Each op advances a virtual clock by 100µs, so the batch
// sizes are exact: 16 ops take 1.6ms, short of the 2ms window, and the
// batch of 32 is the first to reach it.
func TestMeasureCountsIterations(t *testing.T) {
	clk := sim.NewVirtual()
	calls := 0
	s := Scenario{Name: "counter", Refs: 10, Setup: func() (func() error, func(), error) {
		return func() error {
			calls++
			clk.Advance(100 * time.Microsecond)
			return nil
		}, nil, nil
	}}
	r, err := measure(s, Options{MinTime: 2 * time.Millisecond}, clk)
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 32 {
		t.Errorf("iterations = %d, want 32 for a 100µs op over a 2ms window", r.Iterations)
	}
	// warm-up + 1 + 2 + … + final batch
	want := 1
	for n := 1; n <= r.Iterations; n *= 2 {
		want += n
	}
	if calls != want {
		t.Errorf("op ran %d times, want %d (warm-up plus doubling batches up to %d)", calls, want, r.Iterations)
	}
	if r.NsPerOp != 100_000 {
		t.Errorf("NsPerOp = %v, want 100000", r.NsPerOp)
	}
	if r.RefsPerSec <= 0 {
		t.Errorf("RefsPerSec = %v, want > 0 for Refs=10", r.RefsPerSec)
	}
}

// TestMeasureSmokeSingleIteration checks MinTime ≤ 0 runs exactly one
// timed iteration, and that cleanup and setup errors propagate.
func TestMeasureSmokeSingleIteration(t *testing.T) {
	calls, cleaned := 0, false
	s := Scenario{Name: "smoke", Setup: func() (func() error, func(), error) {
		return func() error { calls++; return nil }, func() { cleaned = true }, nil
	}}
	r, err := Measure(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 1 || calls != 2 { // warm-up + one timed
		t.Errorf("iterations = %d, op calls = %d; want 1 and 2", r.Iterations, calls)
	}
	if !cleaned {
		t.Error("cleanup did not run")
	}

	_, err = Measure(Scenario{Name: "bad", Setup: func() (func() error, func(), error) {
		return nil, nil, fmt.Errorf("no hardware")
	}}, Options{})
	if err == nil {
		t.Error("setup error did not propagate")
	}
	_, err = Measure(Scenario{Name: "failing-op", Setup: func() (func() error, func(), error) {
		return func() error { return fmt.Errorf("op broke") }, nil, nil
	}}, Options{})
	if err == nil {
		t.Error("op error did not propagate")
	}
}

// TestReportRoundTrip proves the JSON codec is lossless and that
// DecodeReport validates what it accepts.
func TestReportRoundTrip(t *testing.T) {
	rep := Report{
		SchemaVersion: SchemaVersion,
		GitSHA:        "abc1234",
		Date:          "2026-08-06T12:00:00Z",
		GoVersion:     "go1.24.0",
		GOOS:          "linux",
		GOARCH:        "amd64",
		Scenarios: []Result{
			{Name: "a", Iterations: 128, NsPerOp: 812.5, BytesPerOp: 16, AllocsPerOp: 0.5, RefsPerSec: 7.875e7},
			{Name: "b", Iterations: 1, NsPerOp: 31250},
		},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("round trip changed the report:\n got %+v\nwant %+v", got, rep)
	}

	for _, bad := range []string{
		`{"schemaVersion": 2, "scenarios": []}`,
		`{"schemaVersion": 1, "scenarios": [{"name": "a"}, {"name": "a"}]}`,
		`{"schemaVersion": 1, "scenarios": [{"name": ""}]}`,
		`not json`,
	} {
		if _, err := DecodeReport(strings.NewReader(bad)); err == nil {
			t.Errorf("DecodeReport accepted %q", bad)
		}
	}
}

// TestCompareRegression uses the checked-in fixtures: BENCH_regressed
// slows one scenario by 60%, drops one, and adds one.
func TestCompareRegression(t *testing.T) {
	old, err := ReadReport("testdata/BENCH_base.json")
	if err != nil {
		t.Fatal(err)
	}
	new, err := ReadReport("testdata/BENCH_regressed.json")
	if err != nil {
		t.Fatal(err)
	}
	c := CompareReports(old, new)
	regs := c.Regressions(15)
	if len(regs) != 1 || regs[0].Name != "cache/prime/strided64/batch" {
		t.Fatalf("regressions = %+v, want exactly cache/prime/strided64/batch", regs)
	}
	if got := regs[0].NsPct; got < 59.9 || got > 60.1 {
		t.Errorf("regression delta = %.2f%%, want 60%%", got)
	}
	if len(c.Missing) != 1 || c.Missing[0] != "cache/direct/strided64/batch" {
		t.Errorf("missing = %v, want [cache/direct/strided64/batch]", c.Missing)
	}
	if len(c.Added) != 1 || c.Added[0] != "cache/prime/analytic-sweep" {
		t.Errorf("added = %v, want [cache/prime/analytic-sweep]", c.Added)
	}
	if !c.Failed(15) {
		t.Error("comparison with a 60% regression and a missing scenario did not fail")
	}
	// A huge tolerance forgives the slowdown but not the dropped scenario.
	if !c.Failed(100) {
		t.Error("missing scenario alone must fail the comparison")
	}
}

// TestCompareWithinTolerance uses the BENCH_ok fixture: every scenario
// within ±8%, nothing missing.
func TestCompareWithinTolerance(t *testing.T) {
	old, err := ReadReport("testdata/BENCH_base.json")
	if err != nil {
		t.Fatal(err)
	}
	new, err := ReadReport("testdata/BENCH_ok.json")
	if err != nil {
		t.Fatal(err)
	}
	c := CompareReports(old, new)
	if len(c.Deltas) != 3 || len(c.Missing) != 0 || len(c.Added) != 0 {
		t.Fatalf("deltas/missing/added = %d/%d/%d, want 3/0/0", len(c.Deltas), len(c.Missing), len(c.Added))
	}
	if c.Failed(15) {
		t.Errorf("comparison failed within tolerance: regressions %+v", c.Regressions(15))
	}
	// The same drift fails under a 5% tolerance (prime slowed 8%).
	if !c.Failed(5) {
		t.Error("8% drift passed a 5% tolerance")
	}
	// Identical reports compare clean at zero tolerance.
	if CompareReports(old, old).Failed(0) {
		t.Error("self-comparison failed")
	}
}

// TestSuiteSmoke runs every pinned scenario once — service scenarios
// included — and checks the assembled report: at least the 8 scenarios
// the baseline contract requires, unique names, and a clean round trip.
func TestSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke skipped in -short mode")
	}
	scenarios := Suite()
	if len(scenarios) < 8 {
		t.Fatalf("suite has %d scenarios, the baseline contract requires ≥ 8", len(scenarios))
	}
	rep, err := Run(scenarios, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range rep.Scenarios {
		if seen[r.Name] {
			t.Errorf("duplicate scenario name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Iterations != 1 {
			t.Errorf("%s: smoke ran %d iterations, want 1", r.Name, r.Iterations)
		}
		if r.NsPerOp < 0 {
			t.Errorf("%s: NsPerOp = %v", r.Name, r.NsPerOp)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReport(&buf); err != nil {
		t.Errorf("smoke report does not round trip: %v", err)
	}
}
