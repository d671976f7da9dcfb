// Package bench is the benchmark-regression harness behind cmd/primebench:
// a pinned suite of named scenarios (see Suite), a self-contained
// measurement runner, a BENCH_*.json report codec, and a comparator that
// flags regressions between two reports. The runner is deliberately
// independent of `go test -bench` so the suite can be driven
// programmatically (a one-iteration smoke pass in CI, a full run for a
// committed baseline) and serialised with provenance (git SHA, date, Go
// version) for later comparison.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"primecache/internal/sim"
)

// SchemaVersion is the report format version; ReadReport rejects
// anything else so `primebench compare` never diffs across formats
// silently.
const SchemaVersion = 1

// Scenario is one named, repeatable measurement.
type Scenario struct {
	// Name identifies the scenario across reports; comparisons are
	// keyed on it. Convention: area/subject/variant.
	Name string
	// Refs is the number of cache references one op issues, for the
	// derived refs/sec throughput metric; 0 when not meaningful.
	Refs int
	// Setup builds fresh scenario state and returns the operation to
	// measure plus an optional cleanup. The op is called once untimed
	// as warm-up, then in timed batches.
	Setup func() (op func() error, cleanup func(), err error)
}

// Options tunes the runner.
type Options struct {
	// MinTime is the minimum measuring time per scenario; the runner
	// doubles the batch size until one timed batch reaches it. Zero or
	// negative means a single iteration — the smoke mode: it validates
	// every scenario end to end but its numbers are meaningless.
	MinTime time.Duration
}

// Result is one scenario's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	// RefsPerSec is the cache-reference throughput, when the scenario
	// declares a per-op reference count.
	RefsPerSec float64 `json:"refsPerSec,omitempty"`
}

// Report is the serialised form of one suite run — the content of a
// BENCH_*.json file.
type Report struct {
	SchemaVersion int      `json:"schemaVersion"`
	GitSHA        string   `json:"gitSHA,omitempty"`
	Date          string   `json:"date,omitempty"`
	GoVersion     string   `json:"goVersion"`
	GOOS          string   `json:"goos"`
	GOARCH        string   `json:"goarch"`
	Scenarios     []Result `json:"scenarios"`
}

// Measure runs one scenario: warm-up, then timed batches of doubling
// size until one batch reaches opt.MinTime, reporting the final batch.
// Allocation figures come from the runtime's memstats around the timed
// batch, after a forced GC.
func Measure(s Scenario, opt Options) (Result, error) { return measure(s, opt, sim.Real) }

// measure is Measure with the batch timer's clock injected, so tests
// can drive the batching on virtual time.
func measure(s Scenario, opt Options, clk sim.Clock) (Result, error) {
	op, cleanup, err := s.Setup()
	if err != nil {
		return Result{}, err
	}
	if cleanup != nil {
		defer cleanup()
	}
	if err := op(); err != nil { // warm-up, untimed
		return Result{}, err
	}
	var before, after runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := clk.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return Result{}, err
			}
		}
		dt := clk.Since(t0)
		runtime.ReadMemStats(&after)
		if dt >= opt.MinTime || n >= 1<<30 {
			r := Result{
				Name:        s.Name,
				Iterations:  n,
				NsPerOp:     float64(dt.Nanoseconds()) / float64(n),
				BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
			}
			if s.Refs > 0 && dt > 0 {
				r.RefsPerSec = float64(s.Refs) * float64(n) / dt.Seconds()
			}
			return r, nil
		}
	}
}

// Run measures every scenario in order and assembles a report with the
// runtime's provenance fields filled in (the caller adds GitSHA and
// Date). progress, when non-nil, is called after each scenario.
func Run(scenarios []Scenario, opt Options, progress func(Result)) (Report, error) {
	rep := Report{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
	}
	for _, s := range scenarios {
		r, err := Measure(s, opt)
		if err != nil {
			return rep, fmt.Errorf("bench: scenario %s: %w", s.Name, err)
		}
		rep.Scenarios = append(rep.Scenarios, r)
		if progress != nil {
			progress(r)
		}
	}
	return rep, nil
}

// Scenario returns the named result, if present.
func (r Report) Scenario(name string) (Result, bool) {
	for _, s := range r.Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Result{}, false
}

// validate checks the invariants ReadReport relies on.
func (r Report) validate() error {
	if r.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: report schema version %d, this tool reads %d", r.SchemaVersion, SchemaVersion)
	}
	seen := make(map[string]bool, len(r.Scenarios))
	for _, s := range r.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("bench: report has an unnamed scenario")
		}
		if seen[s.Name] {
			return fmt.Errorf("bench: report lists scenario %q twice", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// WriteJSON serialises the report, indented, with a trailing newline.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeReport parses and validates a report.
func DecodeReport(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("bench: %w", err)
	}
	if err := rep.validate(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// ReadReport loads a BENCH_*.json file.
func ReadReport(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	rep, err := DecodeReport(f)
	if err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
