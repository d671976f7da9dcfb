package cache

// Batched execution. Sim.Access pays interface dispatch and a virtual
// Mapper.Index call on every reference; AccessBatch pays them once per
// batch instead. For a *Cache the set indices of the whole batch are
// computed by a loop specialised on the concrete mapper, then every
// reference goes through the same step Cache.Access uses, so the two
// paths cannot drift apart. Every other organisation runs its Access in
// a plain loop. Callers that only fold statistics pass a nil result
// slice.
//
// The outcome never depends on chunking: the same access sequence
// produces byte-identical Stats and per-access Results whether it is
// fed per access or in batches of any size (see
// TestAccessBatchEquivalence and testdata/stats.golden).

import "context"

// AccessBatchContext streams accs through s in chunks of chunkSize,
// checking ctx.Err() between chunks so a multi-million-reference batch
// can be abandoned mid-flight without a per-access branch. It returns
// how many references completed; when it stops early the error is
// ctx's. chunkSize <= 0 selects one ctx check for the whole slice.
// The access sequence it applies is byte-identical to AccessBatch's
// regardless of chunking (see TestAccessBatchEquivalence).
func AccessBatchContext(ctx context.Context, s Sim, accs []Access, out []Result, chunkSize int) (int, error) {
	if chunkSize <= 0 {
		chunkSize = len(accs)
	}
	done := 0
	for done < len(accs) {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		hi := done + chunkSize
		if hi > len(accs) {
			hi = len(accs)
		}
		var chunkOut []Result
		if out != nil {
			chunkOut = out[done:hi]
		}
		AccessBatch(s, accs[done:hi], chunkOut)
		done = hi
	}
	return done, nil
}

// AccessBatch streams accs through any Sim in order, exactly as
// len(accs) sequential Access calls would. A *Cache takes its
// mapper-specialised index loop; every other Sim (including the
// oracle's reference simulators) runs a per-access loop. out may be nil
// when the caller only wants the statistics side effects; otherwise it
// must have at least len(accs) elements and out[i] receives the Result
// of accs[i].
func AccessBatch(s Sim, accs []Access, out []Result) {
	if c, ok := s.(*Cache); ok {
		c.AccessBatch(accs, out)
		return
	}
	if out == nil {
		for _, a := range accs {
			s.Access(a)
		}
		return
	}
	for i, a := range accs {
		out[i] = s.Access(a)
	}
}

// setScratch returns a reusable set-index buffer of at least n entries.
func (c *Cache) setScratch(n int) []int {
	if cap(c.scratch) < n {
		c.scratch = make([]int, n)
	}
	return c.scratch[:n]
}

// AccessBatch is equivalent to calling Access for each element of accs
// in order (same Results, same Stats, same final cache state) but
// computes set indices without per-access interface dispatch. out
// follows the rules of the package-level AccessBatch.
func (c *Cache) AccessBatch(accs []Access, out []Result) {
	if len(accs) == 0 {
		return
	}
	idx := c.setScratch(len(accs))
	shift := c.lineShift
	switch m := c.cfg.Mapper.(type) {
	case DirectMapper:
		mask := m.mask
		for i := range accs {
			idx[i] = int((accs[i].Addr >> shift) & mask)
		}
	case PrimeMapper:
		mod := m.mod
		for i := range accs {
			idx[i] = int(mod.Reduce(accs[i].Addr >> shift))
		}
	case ModuloMapper:
		sets := uint64(m.sets)
		for i := range accs {
			idx[i] = int((accs[i].Addr >> shift) % sets)
		}
	default:
		mp := c.cfg.Mapper
		for i := range accs {
			idx[i] = mp.Index(accs[i].Addr >> shift)
		}
	}
	for i := range accs {
		var r *Result
		if out != nil {
			r = &out[i]
		}
		c.access(&accs[i], accs[i].Addr>>shift, idx[i], r)
	}
}
