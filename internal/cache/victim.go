package cache

import "fmt"

// VictimCache is a direct-mapped cache backed by a small fully-associative
// victim buffer (Jouppi 1990) — the third contemporary fix for conflict
// misses alongside skewing and prime mapping. Evicted lines park in the
// buffer; a main-cache miss that hits the buffer swaps the two lines at a
// (modelled) reduced penalty. It rescues ping-pong conflicts among a
// handful of lines but cannot help strided sweeps whose conflict working
// set exceeds the buffer — the vector case the paper targets.
type VictimCache struct {
	main   *Cache
	buf    []way
	clock  uint64
	hits   uint64 // victim-buffer hits (swaps)
	misses uint64 // true misses (both levels)
}

// NewVictim returns a direct-mapped cache of lines lines with a
// fully-associative LRU victim buffer of bufLines entries.
func NewVictim(lines, bufLines int) (*VictimCache, error) {
	main, err := NewDirect(lines)
	if err != nil {
		return nil, err
	}
	if bufLines < 1 {
		return nil, fmt.Errorf("cache: victim buffer needs at least 1 line, got %d", bufLines)
	}
	return &VictimCache{main: main, buf: make([]way, bufLines)}, nil
}

// Main returns the backing direct-mapped cache (its Stats count
// victim-buffer hits as misses of the main array; use VictimStats for the
// combined view).
func (v *VictimCache) Main() *Cache { return v.main }

// VictimStats reports the buffer's behaviour.
type VictimStats struct {
	// SwapHits counts main-cache misses served by the victim buffer.
	SwapHits uint64
	// TrueMisses counts misses of both levels.
	TrueMisses uint64
}

// VictimStats returns the buffer counters.
func (v *VictimCache) VictimStats() VictimStats {
	return VictimStats{SwapHits: v.hits, TrueMisses: v.misses}
}

// Stats returns the main array's counters so a VictimCache satisfies the
// Sim interface. Swap hits are counted as main-array misses here (the
// array did miss); use VictimStats and CombinedMissRatio for the
// two-level view, which is how Access reports its per-reference Result.
func (v *VictimCache) Stats() Stats { return v.main.Stats() }

// CombinedMissRatio returns true misses over all accesses.
func (v *VictimCache) CombinedMissRatio() float64 {
	acc := v.main.Stats().Accesses
	if acc == 0 {
		return 0
	}
	return float64(v.misses) / float64(acc)
}

// Access performs one reference: main cache first, then the buffer.
func (v *VictimCache) Access(a Access) (r Result) {
	v.clock++
	line := v.main.LineAddr(a.Addr)
	v.main.access(&a, line, v.main.cfg.Mapper.Index(line), &r)
	if r.Hit {
		return r
	}
	// The main access evicted r.EvictedLine (if any) and installed the
	// new line. Park the evicted line in the buffer.
	if r.Evicted {
		v.insert(r.EvictedLine, a.Stream)
	}
	// Did the buffer hold the requested line? Then this miss is a swap
	// hit: remove it from the buffer (it now lives in the main array).
	for i := range v.buf {
		if v.buf[i].valid && v.buf[i].line == line {
			v.buf[i].valid = false
			v.hits++
			r.Hit = true // report the combined outcome
			r.Kind = MissNone
			return r
		}
	}
	v.misses++
	return r
}

func (v *VictimCache) insert(line uint64, stream int) {
	victim := 0
	for i := range v.buf {
		if !v.buf[i].valid {
			victim = i
			break
		}
		if v.buf[i].lastUse < v.buf[victim].lastUse {
			victim = i
		}
	}
	v.buf[victim] = way{valid: true, line: line, stream: stream, lastUse: v.clock}
}

// Describe returns a short human-readable description.
func (v *VictimCache) Describe() string {
	return fmt.Sprintf("direct %d lines + %d-entry victim buffer", v.main.Lines(), len(v.buf))
}

// Flush invalidates both levels and clears statistics.
func (v *VictimCache) Flush() {
	v.main.Flush()
	for i := range v.buf {
		v.buf[i] = way{}
	}
	v.clock = 0
	v.hits = 0
	v.misses = 0
}
