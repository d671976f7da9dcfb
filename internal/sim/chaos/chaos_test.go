package chaos

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"primecache/internal/sim"
	"primecache/internal/sim/leak"
)

// TestMain asserts the whole chaos suite quiesces: every simulated
// cluster the runs boot must be fully gone at exit.
func TestMain(m *testing.M) { leak.Main(m) }

// schedules returns how many seeded schedules TestChaosSchedules runs:
// CHAOS_SCHEDULES when set (the Makefile's chaos target passes 50),
// otherwise a smoke-sized default.
func schedules(t *testing.T) int {
	if s := os.Getenv("CHAOS_SCHEDULES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("CHAOS_SCHEDULES=%q is not a positive integer", s)
		}
		return n
	}
	if testing.Short() {
		return 2
	}
	return 8
}

// TestChaosSchedules is the headline check: N seeded fault schedules,
// each replayed against a fresh 3-node cluster, and every invariant
// must hold at every step. On a violation the seed is printed — rerun
// with that seed (or the logged schedule) to reproduce the failure.
func TestChaosSchedules(t *testing.T) {
	n := schedules(t)
	for i := 0; i < n; i++ {
		seed := int64(1 + i)
		rep, err := Run(Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if rep.Failed() {
			t.Errorf("seed %d: %d invariant violation(s); reproduce with Run(Options{Seed: %d})", seed, len(rep.Violations), seed)
			for _, v := range rep.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Logf("seed %d schedule:\n%s", seed, rep.Schedule.Log())
			t.Logf("seed %d event log:\n%s", seed, strings.Join(rep.Log, "\n"))
		}
	}
}

// TestChaosSeedReplay pins determinism: the same seed must produce a
// byte-identical schedule and event log across two full runs.
func TestChaosSeedReplay(t *testing.T) {
	const seed = 7
	first, err := Run(Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := first.Schedule.Log(), second.Schedule.Log(); a != b {
		t.Errorf("schedule not reproducible from seed %d:\n--- first\n%s\n--- second\n%s", seed, a, b)
	}
	a, b := strings.Join(first.Log, "\n"), strings.Join(second.Log, "\n")
	if a != b {
		t.Errorf("event log not reproducible from seed %d:\n--- first\n%s\n--- second\n%s", seed, a, b)
	}
	if first.Failed() || second.Failed() {
		t.Errorf("replay runs violated invariants: %v / %v", first.Violations, second.Violations)
	}
}

// brokenFailoverSchedule crashes two of three nodes in step 0 with no
// probe rounds: the sweep's sub-batches for the dead primaries fail in
// flight and must be re-scattered to the survivor.
func brokenFailoverSchedule() *sim.Schedule {
	return &sim.Schedule{
		Seed:  -1,
		Nodes: 3,
		Steps: 1,
		Events: []sim.Event{
			{Step: 0, Kind: sim.EventCrash, Node: 0},
			{Step: 0, Kind: sim.EventCrash, Node: 2},
		},
	}
}

// TestChaosBrokenFailoverTripsInvariant proves the invariants have
// teeth: with the coordinator's re-scatter deliberately broken
// (DropRescatter), jobs routed to the crashed nodes are lost and the
// no-lost-jobs invariant must fire. The identical schedule with
// failover intact must pass clean — so the violation is the bug, not
// the schedule.
func TestChaosBrokenFailoverTripsInvariant(t *testing.T) {
	control, err := Run(Options{
		Seed:           -1,
		Schedule:       brokenFailoverSchedule(),
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if control.Failed() {
		t.Fatalf("control run (working failover) violated invariants: %v", control.Violations)
	}

	broken, err := Run(Options{
		Seed:           -1,
		Schedule:       brokenFailoverSchedule(),
		RequestTimeout: 2 * time.Second,
		DropRescatter:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tripped := false
	for _, v := range broken.Violations {
		if v.Invariant == InvJobs {
			tripped = true
		}
	}
	if !tripped {
		t.Errorf("broken failover not caught: want a %s violation, got %v", InvJobs, broken.Violations)
	}
}

// warmRestartSchedule cycles a crash/restart through every node, with
// a probe round after each fault so routing follows health: step 0 is
// fault-free (seeding the probe job onto its primary's disk), then
// each node in turn is killed for a step and restarted the next.
// Whichever node owns the probe job, its restart lands on a warm disk
// — so a full cycle forces at least one warm-restart check.
func warmRestartSchedule(nodes int) *sim.Schedule {
	s := &sim.Schedule{Seed: -2, Nodes: nodes, Steps: 2*nodes + 1}
	step := 1
	for i := 0; i < nodes; i++ {
		s.Events = append(s.Events,
			sim.Event{Step: step, Kind: sim.EventCrash, Node: i},
			sim.Event{Step: step, Kind: sim.EventProbe},
		)
		step++
		s.Events = append(s.Events,
			sim.Event{Step: step, Kind: sim.EventRestart, Node: i},
			sim.Event{Step: step, Kind: sim.EventProbe},
		)
		step++
	}
	return s
}

// TestChaosWarmRestart drives kill-and-restart schedules against a
// persist-enabled cluster: every invariant must hold — including the
// warm-restart one, which must actually have run — proving a restarted
// backend answers previously-persisted jobs from disk with zero pool
// work, and that the store's crash recovery never corrupts an answer.
func TestChaosWarmRestart(t *testing.T) {
	rep, err := Run(Options{Seed: -2, Schedule: warmRestartSchedule(3), Persist: true})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if rep.Failed() {
		for _, v := range rep.Violations {
			t.Errorf("%s", v)
		}
		t.Logf("event log:\n%s", strings.Join(rep.Log, "\n"))
	}
	if rep.WarmChecks == 0 {
		t.Error("schedule restarted every node yet no warm-restart check ran — the persist tier never held the probe job")
	}

	// A generated kill schedule over a persist-enabled cluster must hold
	// the same invariants: recovery runs against whatever the crash left.
	rep, err = Run(Options{Seed: 3, Persist: true})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if rep.Failed() {
		for _, v := range rep.Violations {
			t.Errorf("seeded persist run: %s", v)
		}
		t.Logf("event log:\n%s", strings.Join(rep.Log, "\n"))
	}
}

// warmJoinSchedule cycles a leave/join through every node, with probe
// rounds keeping health current. Step 0 is fault-free: the sweep and
// the locality probes run, so the probe job is computed and persisted
// by its ring owner. Then each node in turn leaves (its shards —
// probe job included, when it owns it — migrate to the survivors and
// its disk is wiped) and rejoins the next step (the coordinator
// migrates its shard back onto its cold disk). Whichever node owns
// the probe job, its rejoin therefore lands the job on a freshly
// wiped disk via migration alone — forcing at least one warm-join
// check across the cycle.
func warmJoinSchedule(nodes int) *sim.Schedule {
	s := &sim.Schedule{Seed: -3, Nodes: nodes, Steps: 2*nodes + 1}
	step := 1
	for i := 0; i < nodes; i++ {
		s.Events = append(s.Events,
			sim.Event{Step: step, Kind: sim.EventLeave, Node: i},
			sim.Event{Step: step, Kind: sim.EventProbe},
		)
		step++
		s.Events = append(s.Events,
			sim.Event{Step: step, Kind: sim.EventJoin, Node: i},
			sim.Event{Step: step, Kind: sim.EventProbe},
		)
		step++
	}
	return s
}

// TestChaosWarmJoin drives live membership churn against a
// persist-enabled cluster: every invariant must hold — including the
// warm-join one, which must actually have run — proving a node that
// joins with a wiped disk answers its migrated shard memoized, with
// zero pool work, before any recomputation could have warmed it.
func TestChaosWarmJoin(t *testing.T) {
	rep, err := Run(Options{Seed: -3, Schedule: warmJoinSchedule(3), Persist: true, Membership: true})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if rep.Failed() {
		for _, v := range rep.Violations {
			t.Errorf("%s", v)
		}
		t.Logf("event log:\n%s", strings.Join(rep.Log, "\n"))
	}
	if rep.WarmJoinChecks == 0 {
		t.Error("schedule cycled every node through leave/join yet no warm-join check ran — migration never delivered the probe job")
	}
}

// TestChaosMembershipSchedules runs generated schedules with the
// membership event class enabled: joins and leaves interleave with
// crashes, partitions, latency, and skew, and every invariant must
// still hold.
func TestChaosMembershipSchedules(t *testing.T) {
	n := schedules(t)
	for i := 0; i < n; i++ {
		seed := int64(100 + i)
		rep, err := Run(Options{Seed: seed, Membership: true, Persist: true})
		if err != nil {
			t.Fatalf("seed %d: harness error: %v", seed, err)
		}
		if rep.Failed() {
			t.Errorf("seed %d: %d invariant violation(s); reproduce with Run(Options{Seed: %d, Membership: true, Persist: true})",
				seed, len(rep.Violations), seed)
			for _, v := range rep.Violations {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Logf("seed %d schedule:\n%s", seed, rep.Schedule.Log())
			t.Logf("seed %d event log:\n%s", seed, strings.Join(rep.Log, "\n"))
		}
	}
}

// TestViewMismatchFlagsDivergentCounter pins the stats-metrics
// comparison: equal pairs pass, an event counter absent from /metrics
// reads as 0, and any divergence is reported by series name.
func TestViewMismatchFlagsDivergentCounter(t *testing.T) {
	prom := map[string]float64{"vcached_memo_hits_total": 3}
	agree := []counterPair{{"vcached_memo_hits_total", 3}, {"vcached_admission_degraded_total", 0}}
	if d := viewMismatch(prom, agree); d != "" {
		t.Errorf("agreeing views reported %q", d)
	}
	if d := viewMismatch(prom, []counterPair{{"vcached_memo_hits_total", 4}}); !strings.Contains(d, "vcached_memo_hits_total") {
		t.Errorf("divergent hits counter reported %q, want it named", d)
	}
}
