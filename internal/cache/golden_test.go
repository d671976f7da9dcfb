package cache_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"primecache/internal/cache"
	"primecache/internal/oracle"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenSeed seeds every trace and spec behind testdata/stats.golden.
const goldenSeed = 20261018

// goldenCase is one organisation pinned by the golden file: a name for
// the file and a constructor returning a fresh, empty simulator.
type goldenCase struct {
	name  string
	build func() (cache.Sim, error)
}

// goldenCases lists every Spec kind (three seeded geometries each), the
// two prefetchers, and the Cache modes Spec cannot express: write-back
// and classification off.
func goldenCases() []goldenCase {
	var cases []goldenCase
	g := oracle.NewGen(goldenSeed)
	for _, kind := range cache.SpecKinds() {
		for i := 0; i < 3; i++ {
			spec := g.SpecOfKind(kind)
			cases = append(cases, goldenCase{spec.String(), spec.Build})
		}
	}
	for _, kind := range []cache.PrefetchKind{cache.PrefetchSequential, cache.PrefetchStride} {
		kind := kind
		cases = append(cases, goldenCase{"prefetch-" + kind.String(), func() (cache.Sim, error) {
			base, err := cache.NewDirect(256)
			if err != nil {
				return nil, err
			}
			return cache.NewPrefetchCache(base, kind, 2)
		}})
	}
	cases = append(cases,
		goldenCase{"assoc-writeback", func() (cache.Sim, error) {
			m, err := cache.NewDirectMapper(32)
			if err != nil {
				return nil, err
			}
			return cache.New(cache.Config{Mapper: m, Ways: 2, WriteBack: true})
		}},
		goldenCase{"prime-noclassify", func() (cache.Sim, error) {
			m, err := cache.NewPrimeMapper(7)
			if err != nil {
				return nil, err
			}
			return cache.New(cache.Config{Mapper: m, Ways: 1, DisableClassify: true})
		}},
	)
	return cases
}

// hashResults is FNV-1a over every field of every Result, in order.
func hashResults(rs []cache.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for _, r := range rs {
		put(bit(r.Hit) | bit(r.Evicted)<<1 | bit(r.SelfInterference)<<2 | bit(r.CrossInterference)<<3)
		put(uint64(r.Kind))
		put(uint64(r.Set))
		put(uint64(r.Way))
		put(r.EvictedLine)
	}
	return h.Sum64()
}

// rawStats is cache.Stats without its String method, so %+v prints
// every counter.
type rawStats cache.Stats

// describeRun formats the observable end state of one replay.
func describeRun(sim cache.Sim, rs []cache.Result) string {
	s := fmt.Sprintf("%+v", rawStats(sim.Stats()))
	if v, ok := sim.(interface{ VictimStats() cache.VictimStats }); ok {
		s += fmt.Sprintf(" victim=%+v", v.VictimStats())
	}
	if p, ok := sim.(interface{ PrefetchStats() cache.PrefetchStats }); ok {
		s += fmt.Sprintf(" prefetch=%+v", p.PrefetchStats())
	}
	return s + fmt.Sprintf(" results=%016x", hashResults(rs))
}

// TestStatsGolden pins the exact counts of every organisation on fixed
// seeded traces, per access and through cache.AccessBatch at every
// chunk size, so a refactor of the access paths can be proven not to
// move a single count across commits. Regenerate after an intended
// change with:
//
//	go test ./internal/cache/ -run StatsGolden -update
func TestStatsGolden(t *testing.T) {
	var out bytes.Buffer
	g := oracle.NewGen(goldenSeed + 1)
	for _, gc := range goldenCases() {
		// The trace is folded into a 512-word window, about the size of
		// the largest geometry, and replayed twice, so hits, conflicts
		// and both interference kinds are pinned as well as cold misses.
		tr := g.Trace(2048)
		accs := make([]cache.Access, 2*len(tr))
		for i, r := range tr {
			accs[i] = cache.Access{Addr: r.Addr % (512 * 8), Write: r.Write, Stream: r.Stream}
			accs[len(tr)+i] = accs[i]
		}
		fmt.Fprintf(&out, "%s refs=%d\n", gc.name, len(accs))

		sim, err := gc.build()
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		rs := make([]cache.Result, len(accs))
		for i, a := range accs {
			rs[i] = sim.Access(a)
		}
		fmt.Fprintf(&out, "  access    %s\n", describeRun(sim, rs))

		for _, chunk := range chunkSizes {
			sim, err := gc.build()
			if err != nil {
				t.Fatalf("%s: %v", gc.name, err)
			}
			rs := make([]cache.Result, len(accs))
			for lo := 0; lo < len(accs); lo += chunk {
				hi := min(lo+chunk, len(accs))
				cache.AccessBatch(sim, accs[lo:hi], rs[lo:hi])
			}
			fmt.Fprintf(&out, "  batch%-4d %s\n", chunk, describeRun(sim, rs))
		}
	}

	path := filepath.Join("testdata", "stats.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("counts drifted from %s (rerun with -update if the change is intended):\n--- got ---\n%s", path, out.Bytes())
	}
}
