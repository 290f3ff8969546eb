package experiments

// A17 measures the lease-coherent name-cache hierarchy (PROTOCOL.md
// §13): clients hold lease-stamped resolutions, the prefix server
// invalidates holders by callback barrier before a redefinition
// returns, and an optional intermediate cache tier amortizes upstream
// leases into bounded sub-leases. Three legs:
//
//   - a hit-rate sweep over lease length, with and without the tier,
//     each point run through both the sequential driver and the
//     conservative engine and deep-compared (the coherence protocol
//     must not perturb the equivalence guarantee A16 established);
//   - the A14 outage pattern (two crash/restart cycles of the shared
//     prefix host) with leases replacing the periodic blind flush,
//     plus a mid-run redefinition fired at a quiescent cut — the
//     recorded trace must satisfy the lease staleness invariant
//     (trace.Check #7);
//   - a partition leg: the prefix host is cut off and the name is
//     redefined while its lease holders are unreachable, so the
//     callback barrier reaches nobody and the stale windows the trace
//     records must be non-empty yet bounded by the lease length — the
//     degraded-mode guarantee the hierarchy exists for.
//
// Everything here is virtual time: the documents are byte-identical
// across runs and pinned by golden-guard.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/rig"
	"repro/internal/trace"
)

// a17 shapes. The sweep reuses the A16 topology; the chaos legs stretch
// the request quota so the run horizon covers the fault schedule (leases
// make the workload far cheaper than the flush-driven shape).
const (
	a17ClientsPerShard = 4
	a17Shards          = 4
	a17Requests        = 40
	a17Seed            = 7
	a17ChaosRequests   = 150
	a17ChaosLease      = 80 * time.Millisecond
)

// a17LeaseSweep is the lease-length sweep.
var a17LeaseSweep = []time.Duration{20 * time.Millisecond, 80 * time.Millisecond, 320 * time.Millisecond}

// CacheRun is one sweep point in BENCH_cache.json.
type CacheRun struct {
	LeaseUS         int64 `json:"lease_us"`
	CacheTier       bool  `json:"cache_tier"`
	Shards          int   `json:"shards"`
	ClientsPerShard int   `json:"clients_per_shard"`
	Requests        int   `json:"requests_per_client"`
	Seed            int64 `json:"seed"`

	TotalRequests int     `json:"total_requests"`
	Errors        int     `json:"errors"`
	MakespanUS    int64   `json:"makespan_us"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Per-tier cache counters: the client sessions' lease caches, the
	// intermediate tier (zero unless CacheTier), and the authoritative
	// prefix server's grant counters.
	ClientHits     int     `json:"client_hits"`
	ClientMisses   int     `json:"client_misses"`
	ClientRenewals int     `json:"client_renewals"`
	ClientHitRate  float64 `json:"client_hit_rate"`
	TierHits       int     `json:"tier_hits,omitempty"`
	TierMisses     int     `json:"tier_misses,omitempty"`
	TierForwards   int     `json:"tier_forwards,omitempty"`
	TierHitRate    float64 `json:"tier_hit_rate,omitempty"`
	PrefixGrants   int     `json:"prefix_grants"`

	// EqualToSequential records the deep comparison between the
	// conservative engine's WorkloadResult and the sequential driver's
	// on the identical topology.
	EqualToSequential bool `json:"equal_to_sequential"`
}

// CacheChaos is one fault leg in BENCH_cache.json.
type CacheChaos struct {
	Kind     string   `json:"kind"` // "crash" or "partition"
	LeaseUS  int64    `json:"lease_us"`
	Requests int      `json:"requests_per_client"`
	Schedule []string `json:"schedule"` // the fired chaos log, verbatim

	TotalRequests int `json:"total_requests"`
	Completed     int `json:"completed"`
	Errors        int `json:"errors"`
	// Invalidations counts client lease entries dropped by callback.
	Invalidations int `json:"invalidations"`

	// TraceClean records trace.Check with the lease staleness invariant
	// (#7) enabled; StaleWindows/WidestStaleUS summarize the windows in
	// which a read served a mapping after its redefinition committed,
	// and BoundHeld asserts the widest never exceeded the lease.
	TraceClean    bool  `json:"trace_clean"`
	StaleWindows  int   `json:"stale_windows"`
	WidestStaleUS int64 `json:"widest_stale_us"`
	BoundHeld     bool  `json:"bound_held"`
}

// CacheDoc is the BENCH_cache.json schema.
type CacheDoc struct {
	Tool        string `json:"tool"`
	Description string `json:"description"`

	Sweep []CacheRun   `json:"sweep"`
	Chaos []CacheChaos `json:"chaos"`
}

// a17Run executes one sweep point: the same leased topology built
// twice, run through the sequential driver and the conservative engine,
// compared, and read out per cache tier.
func a17Run(lease time.Duration, tier bool) (CacheRun, error) {
	cfg := rig.SharedPrefixConfig{
		Shards:          a17Shards,
		ClientsPerShard: a17ClientsPerShard,
		Requests:        a17Requests,
		Seed:            a17Seed,
		Lease:           lease,
		CacheTier:       tier,
	}
	run := CacheRun{
		LeaseUS:         lease.Microseconds(),
		CacheTier:       tier,
		Shards:          a17Shards,
		ClientsPerShard: a17ClientsPerShard,
		Requests:        a17Requests,
		Seed:            a17Seed,
	}

	seqTop, err := rig.NewSharedPrefixWorkload(cfg)
	if err != nil {
		return run, err
	}
	seq := rig.RunWorkload(seqTop.Clients)

	parTop, err := rig.NewSharedPrefixWorkload(cfg)
	if err != nil {
		return run, err
	}
	par := rig.RunWorkloadEngine(parTop.Clients, rig.EngineOptions{})

	run.EqualToSequential = reflect.DeepEqual(seq, par)
	run.TotalRequests = par.Requests
	run.MakespanUS = par.Makespan.Microseconds()
	run.ThroughputRPS = par.Throughput()
	for _, st := range par.Clients {
		run.Errors += st.Errors
	}
	for _, c := range parTop.Clients {
		st := c.Session.LeaseCacheStats()
		run.ClientHits += st.Hits
		run.ClientMisses += st.Misses
		run.ClientRenewals += st.Renewals
	}
	if lookups := run.ClientHits + run.ClientMisses + run.ClientRenewals; lookups > 0 {
		run.ClientHitRate = float64(run.ClientHits) / float64(lookups)
	}
	if tier {
		ts := parTop.Tier.Stats()
		run.TierHits = int(ts.Hits)
		run.TierMisses = int(ts.Misses)
		run.TierForwards = int(ts.Forwards)
		if lookups := ts.Hits + ts.Misses; lookups > 0 {
			run.TierHitRate = float64(ts.Hits) / float64(lookups)
		}
	}
	run.PrefixGrants = int(parTop.Prefix.LeaseStats().Grants)
	return run, nil
}

// a17Redefine deletes and re-adds [shard0] through an admin session on
// the prefix host — the mutation whose invalidation barrier (or, under
// partition, whose unreachable holders) the chaos legs measure. Run as
// a Custom chaos event, it executes at a quiescent cut, so it is
// deterministic under the concurrent engine.
func a17Redefine(sw *rig.SharedPrefixWorkload) func() error {
	return func() error {
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
}

// a17Chaos drives the leased topology through the conservative engine
// under a fault schedule, traced, and distills the run into a
// CacheChaos leg: determinism belongs to the engine tests; here the
// trace itself is the deliverable.
func a17Chaos(kind string, schedule func(sw *rig.SharedPrefixWorkload) []chaos.Event) (CacheChaos, error) {
	leg := CacheChaos{
		Kind:     kind,
		LeaseUS:  a17ChaosLease.Microseconds(),
		Requests: a17ChaosRequests,
	}
	sw, err := rig.NewSharedPrefixWorkload(rig.SharedPrefixConfig{
		Shards:          a17Shards,
		ClientsPerShard: a17ClientsPerShard,
		Requests:        a17ChaosRequests,
		Seed:            a17Seed,
		Lease:           a17ChaosLease,
		Trace:           true,
	})
	if err != nil {
		return leg, err
	}
	eng := chaos.New(sw.Kernel, schedule(sw))
	res := rig.RunWorkloadEngine(sw.Clients, rig.EngineOptions{Fences: rig.ChaosFences(eng)})

	leg.Schedule = eng.Log()
	leg.TotalRequests = res.Requests
	for _, c := range res.Clients {
		leg.Completed += c.Completed
		leg.Errors += c.Errors
	}
	for _, c := range sw.Clients {
		leg.Invalidations += c.Session.LeaseCacheStats().Invalidations
	}
	spans := sw.Tracer.Snapshot()
	leg.TraceClean = trace.Check(spans, trace.CheckOptions{LeaseBound: a17ChaosLease}) == nil
	leg.BoundHeld = true
	for _, w := range trace.StaleWindows(spans) {
		leg.StaleWindows++
		us := w.Window / 1e3
		if us > leg.WidestStaleUS {
			leg.WidestStaleUS = us
		}
		if time.Duration(w.Window) > a17ChaosLease {
			leg.BoundHeld = false
		}
	}
	return leg, nil
}

// a17CrashSchedule is the A14 outage pattern compressed to the
// lease-era horizon, with the redefinition fired between grants and the
// first outage: the callback barrier runs while every holder is
// reachable, so the trace must contain no stale window at all.
func a17CrashSchedule(sw *rig.SharedPrefixWorkload) []chaos.Event {
	return []chaos.Event{
		{At: 150 * time.Millisecond, Action: chaos.Custom, Note: "redefine shard0", Do: a17Redefine(sw)},
		{At: 300 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "first outage"},
		{At: 500 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
		{At: 700 * time.Millisecond, Action: chaos.Crash, Host: "nexus", Note: "second outage"},
		{At: 850 * time.Millisecond, Action: chaos.Restart, Host: "nexus"},
	}
}

// a17PartitionSchedule cuts the prefix host off and redefines [shard0]
// mid-partition: the admin session is co-resident with the server, so
// the mutation commits locally, but the callback barrier reaches no
// holder — every partitioned client keeps serving the old binding until
// its lease lapses. The stale windows must be non-empty (the callbacks
// demonstrably failed) yet bounded by the lease.
func a17PartitionSchedule(sw *rig.SharedPrefixWorkload) []chaos.Event {
	return []chaos.Event{
		{At: 250 * time.Millisecond, Action: chaos.Partition, Host: "nexus", Group: 1, Note: "prefix host cut off"},
		{At: 300 * time.Millisecond, Action: chaos.Custom, Note: "redefine shard0 behind the partition", Do: a17Redefine(sw)},
		{At: 450 * time.Millisecond, Action: chaos.Heal},
	}
}

// a17Collect runs every leg once, producing both the JSON document and
// the experiment rows from the same data.
func a17Collect() (*CacheDoc, []Row, error) {
	doc := &CacheDoc{
		Tool:        "vbench -cache",
		Description: "lease-coherent name-cache hierarchy: hit-rate sweep over lease length with and without the intermediate tier, plus crash and partition legs with the trace-checked staleness bound",
	}
	var rows []Row
	for _, tier := range []bool{false, true} {
		for _, lease := range a17LeaseSweep {
			run, err := a17Run(lease, tier)
			if err != nil {
				return nil, nil, fmt.Errorf("a17 lease=%v tier=%v: %w", lease, tier, err)
			}
			if !run.EqualToSequential {
				return nil, nil, fmt.Errorf("a17 lease=%v tier=%v: engine result differs from sequential", lease, tier)
			}
			if run.Errors != 0 {
				return nil, nil, fmt.Errorf("a17 lease=%v tier=%v: %d requests failed", lease, tier, run.Errors)
			}
			doc.Sweep = append(doc.Sweep, run)
			tierNote := "no tier"
			if tier {
				tierNote = fmt.Sprintf("tier %d/%d hits", run.TierHits, run.TierHits+run.TierMisses)
			}
			rows = append(rows, Row{
				Label:    fmt.Sprintf("lease=%s tier=%v", ms(lease), tier),
				Paper:    "-",
				Measured: fmt.Sprintf("%.1f%% client hits", 100*run.ClientHitRate),
				Note: fmt.Sprintf("≡ sequential; %d renewals; %s; %d upstream grants",
					run.ClientRenewals, tierNote, run.PrefixGrants),
			})
		}
	}

	crash, err := a17Chaos("crash", a17CrashSchedule)
	if err != nil {
		return nil, nil, fmt.Errorf("a17 crash leg: %w", err)
	}
	if !crash.TraceClean {
		return nil, nil, fmt.Errorf("a17 crash leg: trace violates the lease staleness invariant")
	}
	if crash.StaleWindows != 0 {
		return nil, nil, fmt.Errorf("a17 crash leg: %d stale windows despite reachable holders", crash.StaleWindows)
	}
	if crash.Invalidations == 0 {
		return nil, nil, fmt.Errorf("a17 crash leg: redefinition invalidated no holder")
	}
	if crash.Errors == 0 {
		return nil, nil, fmt.Errorf("a17 crash leg: outages were never client-visible")
	}
	doc.Chaos = append(doc.Chaos, crash)
	rows = append(rows, Row{
		Label:    "crash leg: redefine + A14 outages",
		Paper:    "-",
		Measured: "0 stale windows",
		Note: fmt.Sprintf("trace-checked (bound %s); %d holders invalidated; %d ops failed in outages",
			ms(a17ChaosLease), crash.Invalidations, crash.Errors),
	})

	part, err := a17Chaos("partition", a17PartitionSchedule)
	if err != nil {
		return nil, nil, fmt.Errorf("a17 partition leg: %w", err)
	}
	if !part.TraceClean {
		return nil, nil, fmt.Errorf("a17 partition leg: trace violates the lease staleness invariant")
	}
	if part.StaleWindows == 0 {
		return nil, nil, fmt.Errorf("a17 partition leg: no stale window — the partition never bit")
	}
	if !part.BoundHeld {
		return nil, nil, fmt.Errorf("a17 partition leg: a stale window exceeded the lease bound")
	}
	doc.Chaos = append(doc.Chaos, part)
	rows = append(rows, Row{
		Label:    "partition leg: redefine behind partition",
		Paper:    "-",
		Measured: fmt.Sprintf("widest stale window %s", ms(time.Duration(part.WidestStaleUS)*time.Microsecond)),
		Note: fmt.Sprintf("%d windows, all ≤ %s lease; callbacks reached no holder",
			part.StaleWindows, ms(a17ChaosLease)),
	})
	return doc, rows, nil
}

// A17 reports the lease-coherence legs: hit-rate amortization across
// the cache hierarchy, and the staleness bound holding through crashes
// and partitions — asserted by the trace checker, not eyeballed.
func A17() (Result, error) {
	_, rows, err := a17Collect()
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "a17",
		Title:  "lease-coherent name caches: hit rates and the staleness bound under faults",
		Source: "PROTOCOL.md §13; §2.3 caches with leases in place of validate-on-use",
		Rows:   rows,
	}, nil
}

// CacheJSON renders the BENCH_cache.json document, byte-identical
// across runs.
func CacheJSON() ([]byte, error) {
	doc, _, err := a17Collect()
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// a17SectionGuard asserts at test time that the A17 registry entry is
// followed only by later experiments (vbench_output.txt's sections up
// through A17 must stay byte-identical as new experiments land).
func a17SectionGuard() bool {
	return sectionGuard("a17")
}
