package cache

import (
	"fmt"
	"math/bits"
)

// SkewedCache is a two-way skewed-associative cache (Seznec's design, the
// other 1990s attack on conflict misses): each way indexes with a
// *different* XOR-based hash of the line address, so two lines that
// collide in one way usually do not collide in the other. It is the
// natural foil for prime mapping — conflict dispersion by hashing versus
// conflict elimination by a prime modulus — and the experiments compare
// both against direct mapping.
//
// Way w of 2^c sets indexes with h_w(line) = low ⊕ rot_w(mid), where low
// and mid are the two c-bit fields above the offset and rot_w is a w-bit
// left rotate within c bits.
type SkewedCache struct {
	c         uint
	mask      uint64
	lineShift uint
	ways      [2][]way
	clock     uint64

	cls *classifier

	stats Stats
}

// NewSkewed returns a two-way skewed cache of lines total lines (a power
// of two, so 2^(c) = lines/2 sets per way) with 8-byte lines.
func NewSkewed(lines int) (*SkewedCache, error) {
	if lines < 4 || lines&(lines-1) != 0 {
		return nil, fmt.Errorf("cache: skewed cache needs power-of-two lines ≥ 4, got %d", lines)
	}
	sets := lines / 2
	c := uint(bits.TrailingZeros(uint(sets)))
	s := &SkewedCache{
		c:         c,
		mask:      uint64(sets - 1),
		lineShift: 3, // 8-byte lines, as the paper fixes
		cls:       newClassifier(lines),
	}
	s.ways[0] = make([]way, sets)
	s.ways[1] = make([]way, sets)
	return s, nil
}

// Lines returns the total line capacity.
func (s *SkewedCache) Lines() int { return 2 * len(s.ways[0]) }

// Stats returns accumulated statistics.
func (s *SkewedCache) Stats() Stats { return s.stats }

// hash computes way w's set index for a line address.
func (s *SkewedCache) hash(w int, line uint64) int {
	low := line & s.mask
	mid := (line >> s.c) & s.mask
	if w == 1 {
		mid = ((mid << 1) | (mid >> (s.c - 1))) & s.mask
	}
	return int(low ^ mid)
}

// Access simulates one reference; the semantics mirror Cache.Access
// (allocate on read and write, LRU-by-timestamp between the two
// candidate frames).
func (s *SkewedCache) Access(a Access) (res Result) {
	s.clock++
	s.stats.Accesses++
	if a.Write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}
	line := a.Addr >> s.lineShift

	kind := s.cls.reference(line)

	idx := [2]int{s.hash(0, line), s.hash(1, line)}
	for w := 0; w < 2; w++ {
		e := &s.ways[w][idx[w]]
		if e.valid && e.line == line {
			e.lastUse = s.clock
			s.stats.Hits++
			return Result{Hit: true, Set: idx[w], Way: w}
		}
	}

	s.stats.Misses++
	s.cls.classify(&res, &s.stats, kind, line, a.Stream)

	// Victim: an invalid frame if either candidate is free, else the
	// least recently used of the two.
	w := 0
	switch {
	case !s.ways[0][idx[0]].valid:
		w = 0
	case !s.ways[1][idx[1]].valid:
		w = 1
	case s.ways[1][idx[1]].lastUse < s.ways[0][idx[0]].lastUse:
		w = 1
	}
	victim := &s.ways[w][idx[w]]
	if victim.valid {
		res.Evicted = true
		res.EvictedLine = victim.line
		s.stats.Evictions++
		s.cls.evicted(victim.line, a.Stream)
	}
	*victim = way{valid: true, line: line, stream: a.Stream, lastUse: s.clock, filled: s.clock}
	res.Set, res.Way = idx[w], w
	return res
}

// Describe returns a short human-readable description.
func (s *SkewedCache) Describe() string {
	return fmt.Sprintf("skewed 2-way %d sets × 8B lines (xor)", len(s.ways[0]))
}

// Flush invalidates every line and clears statistics and history.
func (s *SkewedCache) Flush() {
	for w := 0; w < 2; w++ {
		for i := range s.ways[w] {
			s.ways[w][i] = way{}
		}
	}
	s.clock = 0
	s.stats = Stats{}
	s.cls.reset()
}
