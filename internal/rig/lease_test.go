package rig

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/trace"
)

// leaseShape is the engine-equivalence topology with the lease-coherent
// hierarchy in place of the periodic blind flush: the lease is short
// relative to the run horizon so renewals (Shared re-resolutions through
// the prefix server) recur mid-run, exercising both engine classes.
var leaseShape = SharedPrefixConfig{
	Shards: 4, ClientsPerShard: 4, Requests: 40, Seed: 7,
	Lease: 20 * time.Millisecond,
}

// leaseTotals sums the lease-cache counters across the workload's
// sessions — the proof that both operation classes actually ran.
func leaseTotals(sw *SharedPrefixWorkload) (hits, misses, renewals int) {
	for _, c := range sw.Clients {
		st := c.Session.LeaseCacheStats()
		hits += st.Hits
		misses += st.Misses
		renewals += st.Renewals
	}
	return hits, misses, renewals
}

// TestShardedLeaseEquivalence extends the tentpole equivalence guarantee
// to the lease-coherent hierarchy: with leases replacing FlushEvery (and
// optionally the intermediate cache tier interposed), the conservative
// engine's WorkloadResult must be deeply equal to the sequential
// driver's, across team sizes, with lease hits, cold misses and
// mid-run renewals all present. make check runs it under -race.
func TestShardedLeaseEquivalence(t *testing.T) {
	for _, tc := range []struct {
		label string
		team  int
		tier  bool
	}{
		{"team1", 1, false},
		{"team2", 2, false},
		{"team4", 4, false},
		{"tier", 1, true},
	} {
		t.Run(tc.label, func(t *testing.T) {
			build := func() *SharedPrefixWorkload {
				cfg := leaseShape
				cfg.Team = tc.team
				cfg.CacheTier = tc.tier
				sw, err := NewSharedPrefixWorkload(cfg)
				if err != nil {
					t.Fatalf("build leased workload: %v", err)
				}
				return sw
			}
			seqTop := build()
			seq := RunWorkload(seqTop.Clients)
			want := leaseShape.Shards * leaseShape.ClientsPerShard * leaseShape.Requests
			if seq.Requests != want {
				t.Fatalf("sequential driver issued %d requests, want %d", seq.Requests, want)
			}
			for i, c := range seq.Clients {
				if c.Errors != 0 {
					t.Fatalf("sequential client %d saw %d errors", i, c.Errors)
				}
			}
			parTop := build()
			par := RunWorkloadEngine(parTop.Clients, EngineOptions{})
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("leased result differs from sequential\nseq: %+v\npar: %+v", seq, par)
			}
			if seq.Throughput() != par.Throughput() {
				t.Fatalf("throughput differs: %v vs %v", seq.Throughput(), par.Throughput())
			}
			hits, misses, renewals := leaseTotals(parTop)
			if hits == 0 || misses == 0 || renewals == 0 {
				t.Fatalf("degenerate class mix (hits=%d misses=%d renewals=%d); the test needs all three",
					hits, misses, renewals)
			}
			// And both drivers observed the same cache behaviour, not just
			// the same latencies.
			sh, sm, sr := leaseTotals(seqTop)
			if sh != hits || sm != misses || sr != renewals {
				t.Fatalf("cache counters diverge: seq %d/%d/%d vs engine %d/%d/%d",
					sh, sm, sr, hits, misses, renewals)
			}
		})
	}
}

// TestInvalidationUnderChaos is the headline staleness run: the A14
// crash schedule plus a mid-run redefinition of a live prefix, driven
// through the conservative engine with leases bounding staleness instead
// of periodic flushes. The redefinition fires as a Custom chaos event at
// a quiescent cut — an admin session on the prefix host deletes and
// re-adds [shard0], so the callback barrier must reach every lease
// holder before the mutation returns. The run must be byte-deterministic
// across repetitions, the outages client-visible, and — the invariant
// this PR exists for — the recorded trace must satisfy the lease
// staleness bound (trace.Check invariant #7): no read is served from a
// binding more than one lease length after it was redefined.
func TestInvalidationUnderChaos(t *testing.T) {
	const lease = 80 * time.Millisecond
	run := func() (*SharedPrefixWorkload, *chaos.Engine, *WorkloadResult) {
		cfg := sharedPrefixShape
		cfg.FlushEvery = 0
		cfg.Lease = lease
		cfg.Trace = true
		// Leases make the run far cheaper than the flush-driven shape —
		// stretch the quota so the horizon covers the whole schedule.
		cfg.Requests = 150
		sw, err := NewSharedPrefixWorkload(cfg)
		if err != nil {
			t.Fatalf("build leased workload: %v", err)
		}
		redefine := func() error {
			proc, err := sw.PrefixHost.NewProcess("admin")
			if err != nil {
				return err
			}
			adm := client.New(proc, sw.Prefix.PID(), sw.Shards[0].RootPair(), "admin")
			if err := adm.DeleteName("shard0"); err != nil {
				return err
			}
			return adm.AddName("shard0", sw.Shards[0].RootPair())
		}
		// The A14 outage pattern (two crash/restart cycles of the shared
		// prefix host), compressed to the lease-era horizon: without the
		// blind flushes the same request quota spans far less virtual
		// time, so the outages land earlier to stay inside the run.
		schedule := []chaos.Event{
			{At: 150 * time.Millisecond, Action: chaos.Custom, Note: "redefine shard0", Do: redefine},
			{At: 300 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "first outage"},
			{At: 500 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
			{At: 700 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "second outage"},
			{At: 850 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
		}
		eng := chaos.New(sw.Kernel, schedule)
		res := RunWorkloadEngine(sw.Clients, EngineOptions{Fences: ChaosFences(eng)})
		return sw, eng, res
	}

	sw1, eng1, res1 := run()
	_, eng2, res2 := run()
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("leased chaos run not deterministic\nrun1: %+v\nrun2: %+v", res1, res2)
	}
	if !reflect.DeepEqual(eng1.Log(), eng2.Log()) {
		t.Fatalf("chaos logs differ:\n%v\nvs\n%v", eng1.Log(), eng2.Log())
	}
	if eng1.Fired() != 5 {
		t.Fatalf("fired %d events, want 5 (redefine + two crash/restart pairs)", eng1.Fired())
	}
	if log := strings.Join(eng1.Log(), "\n"); strings.Contains(log, "error") {
		t.Fatalf("redefine event failed:\n%s", log)
	}

	errs, completed := 0, 0
	for _, c := range res1.Clients {
		errs += c.Errors
		completed += c.Completed
	}
	if errs == 0 {
		t.Fatal("prefix-host outages were never client-visible (no errors recorded)")
	}
	if completed == 0 {
		t.Fatal("no operations completed despite lane-confined lease hits")
	}

	// The redefinition's callback barrier reached the shard0 holders: at
	// least one client observed its lease dropped out from under it.
	invalidated := 0
	for _, c := range sw1.Clients[:sharedPrefixShape.ClientsPerShard] {
		invalidated += c.Session.LeaseCacheStats().Invalidations
	}
	if invalidated == 0 {
		t.Fatal("redefinition invalidated no shard0 lease holder")
	}

	// The invariant itself, asserted rather than eyeballed: every lease
	// stamp spans at most the configured length, no hit outlives its
	// lease, and no hit backed by a pre-redefinition grant runs more than
	// one lease length past the redefinition's commit.
	if err := trace.Check(sw1.Tracer.Snapshot(), trace.CheckOptions{LeaseBound: lease}); err != nil {
		t.Fatalf("lease staleness invariant violated: %v", err)
	}
	// Any stale windows the trace does contain are bounded by the lease.
	for _, w := range trace.StaleWindows(sw1.Tracer.Snapshot()) {
		if time.Duration(w.Window) > lease {
			t.Fatalf("stale window %+v exceeds the lease bound %v", w, lease)
		}
	}
}
