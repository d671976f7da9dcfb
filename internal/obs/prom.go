package obs

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Kind is a Prometheus metric family type.
type Kind int

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a cumulative-bucket latency distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// HistValue is one histogram sample: the finite upper bounds plus the
// cumulative count ladder. CumCounts has one entry per finite edge
// plus a final entry for the implicit +Inf bucket, and must be
// non-decreasing; the last entry is the observation count.
type HistValue struct {
	// Edges are the finite le bounds, ascending.
	Edges []float64
	// CumCounts are cumulative counts per edge; len(Edges)+1 entries,
	// the last being the +Inf bucket (== total count).
	CumCounts []uint64
	// Sum is the sum of all observations.
	Sum float64
}

// Sample is one labelled value within a family. Exactly one of Value
// (counter/gauge) and Hist (histogram) is meaningful.
type Sample struct {
	Labels []Label
	Value  float64
	Hist   *HistValue
}

// Family is one metric family: a name, a help line, a type, and its
// samples.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// escapeLabel applies the exposition-format label-value escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp applies the exposition-format HELP escapes.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func labelString(labels []Label, extra ...Label) string {
	all := append(append([]Label{}, labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteProm renders families in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, one HELP and TYPE line
// each, histograms expanded into _bucket/_sum/_count series with an
// explicit +Inf bucket. Invalid metric or label names are an error —
// exposition must never emit a line a scraper would reject.
func WriteProm(w io.Writer, families []Family) error {
	fams := make([]Family, len(families))
	copy(fams, families)
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	for _, f := range fams {
		if !nameRe.MatchString(f.Name) {
			return fmt.Errorf("obs: invalid metric name %q", f.Name)
		}
		for _, s := range f.Samples {
			for _, l := range s.Labels {
				if !labelRe.MatchString(l.Name) {
					return fmt.Errorf("obs: metric %s: invalid label name %q", f.Name, l.Name)
				}
			}
		}
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, s := range f.Samples {
			if f.Kind == KindHistogram {
				if err := writeHist(w, f.Name, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.Name, labelString(s.Labels), formatFloat(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHist(w io.Writer, name string, s Sample) error {
	h := s.Hist
	if h == nil {
		return fmt.Errorf("obs: histogram family %s has a sample without hist data", name)
	}
	if len(h.CumCounts) != len(h.Edges)+1 {
		return fmt.Errorf("obs: histogram %s: %d cumulative counts for %d edges (want edges+1)",
			name, len(h.CumCounts), len(h.Edges))
	}
	for i, edge := range h.Edges {
		if i > 0 && edge <= h.Edges[i-1] {
			return fmt.Errorf("obs: histogram %s: edges not ascending at %v", name, edge)
		}
		if i > 0 && h.CumCounts[i] < h.CumCounts[i-1] {
			return fmt.Errorf("obs: histogram %s: cumulative counts decrease at le=%v", name, edge)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelString(s.Labels, Label{Name: "le", Value: formatFloat(edge)}), h.CumCounts[i]); err != nil {
			return err
		}
	}
	total := h.CumCounts[len(h.CumCounts)-1]
	if n := len(h.Edges); n > 0 && total < h.CumCounts[n-1] {
		return fmt.Errorf("obs: histogram %s: +Inf bucket below last finite bucket", name)
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, labelString(s.Labels, Label{Name: "le", Value: "+Inf"}), total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(s.Labels), formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(s.Labels), total)
	return err
}
