package oracle

import (
	"math/rand"

	"primecache/internal/cache"
	"primecache/internal/trace"
)

// Gen deterministically generates cache specifications, access patterns,
// and traces from a seed. The same seed always yields the same sequence,
// so every campaign or property failure is reproducible from its seed
// alone.
type Gen struct {
	rng *rand.Rand
}

// NewGen returns a generator seeded with seed.
func NewGen(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

// Rand exposes the underlying source for callers composing their own
// draws (property checks, fuzz harnesses).
func (g *Gen) Rand() *rand.Rand { return g.rng }

func (g *Gen) pick(vals []int) int { return vals[g.rng.Intn(len(vals))] }

// SpecOfKind returns a randomized, always-valid Spec of the given kind.
// Geometries are kept small so that conflicts are frequent and the
// reference simulator's linear scans stay cheap.
func (g *Gen) SpecOfKind(kind string) cache.Spec {
	s := cache.Spec{Kind: kind}
	switch kind {
	case "prime":
		s.C = uint(g.pick([]int{3, 5, 7}))
	case "direct":
		s.Lines = g.pick([]int{16, 64, 256})
	case "assoc":
		s.Ways = g.pick([]int{2, 4, 8})
		s.Lines = s.Ways * g.pick([]int{8, 16, 64})
		s.Policy = []string{"lru", "fifo", "random"}[g.rng.Intn(3)]
	case "full":
		s.Lines = g.pick([]int{4, 8, 32})
	case "prime-assoc":
		s.C = uint(g.pick([]int{3, 5, 7}))
		s.Ways = g.pick([]int{2, 4})
	case "skewed":
		s.Lines = g.pick([]int{16, 64, 256})
	case "victim":
		s.Lines = g.pick([]int{32, 64, 256})
		s.VictimLines = g.pick([]int{1, 2, 8})
	}
	return s.Normalize()
}

// Spec returns a randomized Spec of a random kind.
func (g *Gen) Spec() cache.Spec {
	kinds := cache.SpecKinds()
	return g.SpecOfKind(kinds[g.rng.Intn(len(kinds))])
}

// Pattern returns a randomized, always-valid trace.Pattern with bounded
// size (a single pass stays under ~4096 references).
func (g *Gen) Pattern() trace.Pattern {
	names := []string{"strided", "diagonal", "subblock", "rowcol", "fft"}
	p := trace.Pattern{
		Name:   names[g.rng.Intn(len(names))],
		Start:  uint64(g.rng.Intn(1 << 12)),
		Stream: 1 + g.rng.Intn(3),
	}
	switch p.Name {
	case "strided":
		p.Stride = int64(g.rng.Intn(129) - 64)
		if p.Stride == 0 {
			p.Stride = 1
		}
		p.N = 1 + g.rng.Intn(512)
		if p.Stride < 0 {
			// A descending walk must stop at or above word 0; clamping
			// n to the longest such walk often ends it right at the
			// edge of the address range.
			p.N = min(p.N, int(p.Start/uint64(-p.Stride))+1)
		}
	case "diagonal":
		p.LD = 1 + g.rng.Intn(700)
		p.N = 1 + g.rng.Intn(512)
	case "subblock":
		p.LD = 1 + g.rng.Intn(700)
		p.B1 = 1 + g.rng.Intn(24)
		p.B2 = 1 + g.rng.Intn(24)
	case "rowcol":
		p.LD = 1 + g.rng.Intn(700)
		p.N = 1 + g.rng.Intn(512)
	case "fft":
		p.B2 = g.pick([]int{2, 4, 8})
		p.N = p.B2 * (1 + g.rng.Intn(64))
	}
	return p
}

// Trace materialises a randomized workload of at most maxRefs
// references: one to three patterns, concatenated or interleaved (the
// paper's multi-stream case), with a fraction of references flipped to
// stores.
func (g *Gen) Trace(maxRefs int) trace.Trace {
	parts := make([]trace.Trace, 0, 3)
	for i, k := 0, 1+g.rng.Intn(3); i < k; i++ {
		p := g.Pattern()
		tr, err := p.Build()
		if err != nil {
			// Gen patterns are valid by construction; a failure here is
			// a generator bug worth crashing on.
			panic("oracle: generated invalid pattern " + p.String() + ": " + err.Error())
		}
		parts = append(parts, tr)
	}
	var tr trace.Trace
	if g.rng.Intn(2) == 0 {
		tr = trace.Interleave(parts...)
	} else {
		tr = trace.Concat(parts...)
	}
	if len(tr) > maxRefs {
		tr = tr[:maxRefs]
	}
	out := make(trace.Trace, len(tr))
	copy(out, tr)
	for i := range out {
		if g.rng.Intn(8) == 0 {
			out[i].Write = true
		}
	}
	return out
}
