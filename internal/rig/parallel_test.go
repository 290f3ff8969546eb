package rig

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
)

// buildShards boots a fresh sharded topology and optionally wires a
// per-lane chaos schedule into the clients' ops: lanes 1 and 3 crash
// their own shard host mid-workload, pumped from that lane's clients
// only, so the fault stays lane-local and the engine driver's
// equivalence guarantee holds under it.
func buildShards(t *testing.T, team int, withChaos bool) *ShardedWorkload {
	t.Helper()
	sw, err := NewShardedWorkload(ShardConfig{
		Shards:          4,
		ClientsPerShard: 4,
		Requests:        12,
		Team:            team,
		Seed:            7,
	})
	if err != nil {
		t.Fatalf("build sharded workload: %v", err)
	}
	if !withChaos {
		return sw
	}
	engines := make(map[int]*chaos.Engine)
	for _, lane := range []int{1, 3} {
		engines[lane] = chaos.New(sw.Kernel, []chaos.Event{
			{At: 10 * time.Millisecond, Action: chaos.Crash, Host: sw.Hosts[lane].Name()},
		})
	}
	for _, c := range sw.Clients {
		eng := engines[c.Lane]
		if eng == nil {
			continue
		}
		op := c.Op
		c.Op = func(s *client.Session, iter int) error {
			eng.AdvanceTo(s.Proc().Now())
			return op(s, iter)
		}
	}
	return sw
}

// TestParallelDriverEquivalence asserts the tentpole guarantee: the
// engine driver's WorkloadResult — per-client stats, makespan,
// throughput — is deeply equal to the sequential driver's, across team
// sizes and GOMAXPROCS settings.
func TestParallelDriverEquivalence(t *testing.T) {
	for _, team := range []int{1, 2, 4} {
		seq := RunWorkload(buildShards(t, team, false).Clients)
		if seq.Requests != 4*4*12 {
			t.Fatalf("team %d: sequential driver issued %d requests, want %d", team, seq.Requests, 4*4*12)
		}
		for _, c := range seq.Clients {
			if c.Errors != 0 || c.Completed != 12 {
				t.Fatalf("team %d: sequential client stats %+v, want 12 completions", team, c)
			}
		}
		for _, procs := range []int{1, 2} {
			par := runEngineAt(procs, buildShards(t, team, false).Clients)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("team %d GOMAXPROCS %d: parallel result differs\nseq: %+v\npar: %+v",
					team, procs, seq, par)
			}
			if seq.Throughput() != par.Throughput() {
				t.Fatalf("team %d GOMAXPROCS %d: throughput differs: %v vs %v",
					team, procs, seq.Throughput(), par.Throughput())
			}
		}
	}
}

// TestParallelDriverEquivalenceUnderChaos repeats the equivalence check
// with lane-local host crashes firing mid-workload: crashed lanes'
// clients die with their shard and their remaining iterations fail, and
// the engine driver must report the exact same outcome.
func TestParallelDriverEquivalenceUnderChaos(t *testing.T) {
	for _, team := range []int{1, 2, 4} {
		seq := RunWorkload(buildShards(t, team, true).Clients)
		errs := 0
		for _, c := range seq.Clients {
			errs += c.Errors
		}
		if errs == 0 {
			t.Fatalf("team %d: chaos schedule never fired (no errors recorded)", team)
		}
		for _, procs := range []int{1, 2} {
			par := runEngineAt(procs, buildShards(t, team, true).Clients)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("team %d GOMAXPROCS %d: parallel result differs under chaos\nseq: %+v\npar: %+v",
					team, procs, seq, par)
			}
		}
	}
}

// runEngineAt runs the engine driver with GOMAXPROCS set to procs,
// restoring the previous setting afterwards.
func runEngineAt(procs int, clients []*WorkloadClient) *WorkloadResult {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return RunWorkloadEngine(clients, EngineOptions{})
}
