package oracle

import (
	"fmt"
	"strings"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// victimStatser is implemented by both cache.VictimCache and refVictim;
// Diff compares the two-level counters when both sides expose them.
type victimStatser interface {
	VictimStats() cache.VictimStats
}

// Divergence describes the first observed disagreement between a fast
// simulator and its reference on one trace.
type Divergence struct {
	// Spec identifies the organisation under test (zero for factory
	// diffs).
	Spec cache.Spec
	// Step is the index of the first diverging reference, or -1 when
	// only the final statistics disagree.
	Step int
	// Ref is the diverging reference (meaningful when Step >= 0).
	Ref trace.Ref
	// Fast and Want are the per-access outcomes of the fast and
	// reference simulators at Step (Hit, Kind, eviction, and
	// interference fields are the compared subset).
	Fast, Want cache.Result
	// FastStats and WantStats are the statistics at the point of
	// divergence.
	FastStats, WantStats cache.Stats
	// Detail distinguishes the statistic-level mismatches ("stats",
	// "victim-stats") from per-access ones ("access").
	Detail string
	// Trace is the minimised counterexample: the shortest sub-trace
	// found that still diverges.
	Trace trace.Trace
}

// String renders a reproduction-oriented report.
func (d *Divergence) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "divergence (%s) on spec %q", d.Detail, d.Spec.String())
	if d.Step >= 0 {
		fmt.Fprintf(&b, " at step %d (addr=%#x write=%v stream=%d):\n", d.Step, d.Ref.Addr, d.Ref.Write, d.Ref.Stream)
		fmt.Fprintf(&b, "  fast: hit=%v kind=%v evicted=%v self=%v cross=%v\n",
			d.Fast.Hit, d.Fast.Kind, d.Fast.Evicted, d.Fast.SelfInterference, d.Fast.CrossInterference)
		fmt.Fprintf(&b, "  ref:  hit=%v kind=%v evicted=%v self=%v cross=%v\n",
			d.Want.Hit, d.Want.Kind, d.Want.Evicted, d.Want.SelfInterference, d.Want.CrossInterference)
	} else {
		b.WriteString(" in final statistics:\n")
	}
	fmt.Fprintf(&b, "  fast stats: %v\n  ref stats:  %v\n", d.FastStats, d.WantStats)
	fmt.Fprintf(&b, "  minimised counterexample (%d refs):", len(d.Trace))
	for i, r := range d.Trace {
		if i == 48 {
			fmt.Fprintf(&b, " … (+%d more)", len(d.Trace)-i)
			break
		}
		mark := ""
		if r.Write {
			mark = "w"
		}
		fmt.Fprintf(&b, " %d%s/s%d", r.Addr/8, mark, r.Stream)
	}
	return b.String()
}

// sameResult compares the organisation-independent subset of two
// per-access outcomes. Set/Way are included: the reference mirrors the
// fast simulators' placement (lowest free way first, identical victim
// choice), so a placement mismatch is a real divergence.
func sameResult(a, b cache.Result) bool {
	return a.Hit == b.Hit && a.Kind == b.Kind &&
		a.Set == b.Set && a.Way == b.Way &&
		a.Evicted == b.Evicted && a.EvictedLine == b.EvictedLine &&
		a.SelfInterference == b.SelfInterference && a.CrossInterference == b.CrossInterference
}

// Diff replays tr through spec's fast simulator and its reference and
// returns the first divergence with a minimised counterexample, or nil
// when the two agree access-for-access and in their final statistics.
func Diff(spec cache.Spec, tr trace.Trace) (*Divergence, error) {
	mk := func() (cache.Sim, cache.Sim, error) {
		fast, err := spec.Build()
		if err != nil {
			return nil, nil, err
		}
		ref, err := NewRefSim(spec)
		if err != nil {
			return nil, nil, err
		}
		return fast, ref, nil
	}
	d, err := DiffFactories(mk, tr)
	if d != nil {
		d.Spec = spec.Normalize()
	}
	return d, err
}

// DiffFactories is Diff over an arbitrary pair of simulator factories:
// mk must return a fresh fast/reference pair each call (minimisation
// replays candidate sub-traces through fresh instances).
func DiffFactories(mk func() (cache.Sim, cache.Sim, error), tr trace.Trace) (*Divergence, error) {
	d, err := diffOnce(mk, tr)
	if err != nil || d == nil {
		return d, err
	}
	d.Trace = minimise(mk, tr, d)
	return d, nil
}

// diffChunk is the batch size the fast side streams through: the
// campaign then exercises the same cache.AccessBatch path production
// replay uses, while the reference stays per-access.
const diffChunk = 64

// diffOnce replays tr through one fresh pair and reports the first
// divergence without minimising. The fast side goes through
// cache.AccessBatch in chunks, so batch-path bugs (not just Access-path
// bugs) are caught by the differential campaign; on a per-access
// divergence FastStats may therefore include up to diffChunk-1 accesses
// past the diverging step.
func diffOnce(mk func() (cache.Sim, cache.Sim, error), tr trace.Trace) (*Divergence, error) {
	fast, ref, err := mk()
	if err != nil {
		return nil, err
	}
	var accs [diffChunk]cache.Access
	var outs [diffChunk]cache.Result
	for lo := 0; lo < len(tr); lo += diffChunk {
		hi := lo + diffChunk
		if hi > len(tr) {
			hi = len(tr)
		}
		n := hi - lo
		for i, r := range tr[lo:hi] {
			accs[i] = cache.Access{Addr: r.Addr, Write: r.Write, Stream: r.Stream}
		}
		cache.AccessBatch(fast, accs[:n], outs[:n])
		for i := 0; i < n; i++ {
			want := ref.Access(accs[i])
			if !sameResult(outs[i], want) {
				return &Divergence{
					Step: lo + i, Ref: tr[lo+i], Fast: outs[i], Want: want,
					FastStats: fast.Stats(), WantStats: ref.Stats(),
					Detail: "access", Trace: tr[:lo+i+1],
				}, nil
			}
		}
	}
	if gs, ws := fast.Stats(), ref.Stats(); gs != ws {
		return &Divergence{Step: -1, FastStats: gs, WantStats: ws, Detail: "stats", Trace: tr}, nil
	}
	fv, fok := fast.(victimStatser)
	rv, rok := ref.(victimStatser)
	if fok && rok {
		if gs, ws := fv.VictimStats(), rv.VictimStats(); gs != ws {
			return &Divergence{
				Step: -1, FastStats: fast.Stats(), WantStats: ref.Stats(),
				Detail: "victim-stats", Trace: tr,
			}, nil
		}
	}
	return nil, nil
}

// minimiseBudget bounds the number of replays minimisation spends.
const minimiseBudget = 2000

// minimise shrinks tr to a short sub-trace that still diverges: first
// truncate to the diverging step (per-access divergence depends only on
// the prefix), then greedily drop earlier references while the
// divergence persists.
func minimise(mk func() (cache.Sim, cache.Sim, error), tr trace.Trace, d *Divergence) trace.Trace {
	cur := tr
	if d.Step >= 0 {
		cur = tr[:d.Step+1]
	}
	diverges := func(t trace.Trace) bool {
		dd, err := diffOnce(mk, t)
		return err == nil && dd != nil
	}
	budget := minimiseBudget
	for changed := true; changed && budget > 0; {
		changed = false
		for i := len(cur) - 1; i >= 0 && budget > 0; i-- {
			cand := make(trace.Trace, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			budget--
			if diverges(cand) {
				cur = cand
				changed = true
			}
		}
	}
	return cur
}
