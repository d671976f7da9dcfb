package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"slices"
	"sync"
)

// PromContentType is the Prometheus text exposition format version the
// /metrics endpoints speak.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Registry is the one metrics registry of a process tier: labelled
// families rendered together as a Prometheus exposition. Families are
// registered once at start-up; a child (one combination of label
// values) is created on first use and handed out as a pointer, so hot
// paths resolve it once and then update it lock-free. Values owned
// elsewhere (memo and persist stats, ring state, uptime) register a
// read function instead of being copied.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	Family
	labels   []string
	sparse   bool     // omitted while its only value is 0
	children []*child // creation order
}

type child struct {
	values []string
	metric any // *Counter, *Gauge, *Histogram or a func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

func (r *Registry) add(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.Name]; dup {
		panic("obs: metric family " + f.Name + " registered twice")
	}
	r.fams[f.Name] = f
	return f
}

// Vec is a labelled family whose children are metrics of type M.
type Vec[M Counter | Gauge | Histogram] struct {
	r *Registry
	f *family
}

// With returns the child for the given label values (one per label
// name, in order), creating it on first use.
func (v *Vec[M]) With(values ...string) *M {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", v.f.Name, len(v.f.labels), len(values)))
	}
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	if c := v.f.child(values); c != nil {
		return c.metric.(*M)
	}
	m := new(M)
	v.f.children = append(v.f.children, &child{values: slices.Clone(values), metric: m})
	return m
}

// Delete drops the child for the given label values from the
// exposition; holders of its pointer may keep updating it unseen.
func (v *Vec[M]) Delete(values ...string) {
	v.r.mu.Lock()
	defer v.r.mu.Unlock()
	v.f.children = slices.DeleteFunc(v.f.children, func(c *child) bool { return slices.Equal(c.values, values) })
}

func (f *family) child(values []string) *child {
	for _, c := range f.children {
		if slices.Equal(c.values, values) {
			return c
		}
	}
	return nil
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *Vec[Counter] {
	return &Vec[Counter]{r, r.add(&family{Family: Family{Name: name, Help: help, Kind: KindCounter}, labels: labels})}
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *Vec[Gauge] {
	return &Vec[Gauge]{r, r.add(&family{Family: Family{Name: name, Help: help, Kind: KindGauge}, labels: labels})}
}

// HistogramVec registers a latency-histogram family with the given
// label names; it is exposed in seconds.
func (r *Registry) HistogramVec(name, help string, labels ...string) *Vec[Histogram] {
	return &Vec[Histogram]{r, r.add(&family{Family: Family{Name: name, Help: help, Kind: KindHistogram}, labels: labels})}
}

// Counter registers an unlabelled counter and returns it.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// EventCounter is Counter for an event that may never happen: the
// family stays out of the exposition until its first count.
func (r *Registry) EventCounter(name, help string) *Counter {
	c := new(Counter)
	r.add(&family{Family: Family{Name: name, Help: help, Kind: KindCounter}, sparse: true, children: []*child{{metric: c}}})
	return c
}

// Gauge registers an unlabelled gauge and returns it.
func (r *Registry) Gauge(name, help string) *Gauge { return r.GaugeVec(name, help).With() }

// Histogram registers an unlabelled latency histogram and returns it.
func (r *Registry) Histogram(name, help string) *Histogram { return r.HistogramVec(name, help).With() }

// CounterFunc registers a counter whose value read returns at scrape
// time.
func (r *Registry) CounterFunc(name, help string, read func() float64) {
	r.add(&family{Family: Family{Name: name, Help: help, Kind: KindCounter}, children: []*child{{metric: read}}})
}

// GaugeFunc registers a gauge whose value read returns at scrape time.
func (r *Registry) GaugeFunc(name, help string, read func() float64) {
	r.add(&family{Family: Family{Name: name, Help: help, Kind: KindGauge}, children: []*child{{metric: read}}})
}

// sample reads one child's current value. Read functions run outside
// the registry lock, so they may take their owners' locks freely.
func sample(m any) (s Sample) {
	switch m := m.(type) {
	case *Counter:
		s.Value = float64(m.Value())
	case *Gauge:
		s.Value = float64(m.Value())
	case func() float64:
		s.Value = m()
	case *Histogram:
		// The microsecond ladder re-derived by Cumulative, bounds
		// scaled to seconds.
		snap := m.Snapshot()
		uppersUs, cum := snap.Cumulative()
		edges := make([]float64, len(uppersUs))
		for i, us := range uppersUs {
			edges[i] = float64(us) / 1e6
		}
		s.Hist = &HistValue{Edges: edges, CumCounts: cum, Sum: float64(snap.SumUs) / 1e6}
	}
	return s
}

// families snapshots every family with its current samples.
func (r *Registry) families() []Family {
	r.mu.Lock()
	fams := make([]family, 0, len(r.fams))
	for _, f := range r.fams {
		g := *f
		g.children = slices.Clone(f.children)
		fams = append(fams, g)
	}
	r.mu.Unlock()
	out := make([]Family, 0, len(fams))
	for _, f := range fams {
		for _, c := range f.children {
			s := sample(c.metric)
			for i, name := range f.labels {
				s.Labels = append(s.Labels, Label{Name: name, Value: c.values[i]})
			}
			f.Samples = append(f.Samples, s)
		}
		if !f.sparse || f.Samples[0].Value != 0 {
			out = append(out, f.Family)
		}
	}
	return out
}

// Value reads one series by family name and label values: a counter,
// gauge or read function, or a histogram's observation count; 0 when
// there is no such series. Hot paths hold their child instead; this is
// for tests and invariant checks.
func (r *Registry) Value(name string, labelValues ...string) float64 {
	r.mu.Lock()
	var c *child
	if f := r.fams[name]; f != nil {
		c = f.child(labelValues)
	}
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	if h, ok := c.metric.(*Histogram); ok {
		return float64(h.Snapshot().Count)
	}
	return sample(c.metric).Value
}

// ServeHTTP serves the exposition (GET /metrics).
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, r.families()); err != nil {
		writeHandlerError(w, http.StatusInternalServerError, "internal", "rendering metrics: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", PromContentType)
	w.Write(buf.Bytes())
}
