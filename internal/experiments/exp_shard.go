package experiments

// A16 measures the conservative sharded engine (PROTOCOL.md §12) on the
// shared-prefix topology — the shape a lane driver without cross-lane
// synchronization could not parallelize at all, because every client's cache misses cross one
// wire to one prefix server. The engine's whole claim is that going
// wide changes nothing observable: each sweep point runs the workload
// both ways and reports the virtual throughput only after checking the
// two results are deeply equal. Host-time scaling is measured by
// perfbench (perfbench/README.md); everything here is virtual time and
// therefore byte-deterministic.

import (
	"encoding/json"
	"fmt"
	"reflect"

	"repro/internal/rig"
	"repro/internal/vtime"
)

// a16Shape fixes the per-shard load; the sweep varies only the number
// of shards (= engine lanes).
const (
	a16ClientsPerShard = 4
	a16Requests        = 40
	a16FlushEvery      = 6
	a16Seed            = 7
)

// a16ShardCounts is the lane sweep.
var a16ShardCounts = []int{1, 2, 4, 8}

// ShardRun is one sweep point in BENCH_shard.json.
type ShardRun struct {
	Shards          int   `json:"shards"`
	ClientsPerShard int   `json:"clients_per_shard"`
	Requests        int   `json:"requests_per_client"`
	Team            int   `json:"team"`
	FlushEvery      int   `json:"flush_every"`
	Seed            int64 `json:"seed"`

	TotalRequests int     `json:"total_requests"`
	Errors        int     `json:"errors"`
	MakespanUS    int64   `json:"makespan_us"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// ConfinedOps counts cache-hit queries (lane-local hops the engine
	// runs ahead on); SharedOps counts cache misses through the central
	// prefix server (committed in global key order).
	ConfinedOps int `json:"confined_ops"`
	SharedOps   int `json:"shared_ops"`

	// PerLaneOps is the completed-operation count of each engine lane.
	PerLaneOps []int `json:"per_lane_ops"`

	// EqualToSequential records the result of re-running the identical
	// workload through the sequential reference driver and deep-comparing
	// the two WorkloadResults.
	EqualToSequential bool `json:"equal_to_sequential"`
}

// ShardDoc is the BENCH_shard.json schema.
type ShardDoc struct {
	Tool        string `json:"tool"`
	Description string `json:"description"`

	// Engine names the synchronization protocol (PROTOCOL.md §12).
	Engine string `json:"engine"`
	// LookaheadNS is the conservative lookahead bound: the cost model's
	// minimum remote delay (driver floor + protocol extra + minimum
	// frame's wire time).
	LookaheadNS int64 `json:"lookahead_ns"`

	Runs []ShardRun `json:"runs"`
}

// a16Run executes one sweep point: the same topology built twice, run
// once through the sequential reference driver and once through the
// conservative engine, then compared.
func a16Run(shards int) (ShardRun, error) {
	cfg := rig.SharedPrefixConfig{
		Shards:          shards,
		ClientsPerShard: a16ClientsPerShard,
		Requests:        a16Requests,
		Seed:            a16Seed,
		FlushEvery:      a16FlushEvery,
	}
	run := ShardRun{
		Shards:          shards,
		ClientsPerShard: a16ClientsPerShard,
		Requests:        a16Requests,
		Team:            1,
		FlushEvery:      a16FlushEvery,
		Seed:            a16Seed,
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
	run.PerLaneOps = make([]int, shards)
	for i, st := range par.Clients {
		run.Errors += st.Errors
		run.PerLaneOps[parTop.Clients[i].Lane] += st.Completed
	}
	for _, c := range parTop.Clients {
		st := c.Session.NameCacheStats()
		run.ConfinedOps += st.Hits
		run.SharedOps += st.Misses
	}
	return run, nil
}

// a16Collect runs the sweep once, producing both the JSON document and
// the experiment rows from the same data.
func a16Collect() (*ShardDoc, []Row, error) {
	doc := &ShardDoc{
		Tool:        "vbench -shard",
		Description: "conservative sharded engine on the shared-prefix topology: per-lane engines with lookahead synchronization, verified deeply equal to the sequential driver",
		Engine:      "conservative (exact next-op promises, PROTOCOL.md §12)",
		LookaheadNS: vtime.DefaultModel().MinRemoteDelay().Nanoseconds(),
	}
	rows := []Row{{
		Label:    "conservative lookahead bound",
		Paper:    "-",
		Measured: ms(vtime.DefaultModel().MinRemoteDelay()),
		Note:     "min remote delay: driver floor + protocol extra + 64-byte frame",
	}}
	for _, shards := range a16ShardCounts {
		run, err := a16Run(shards)
		if err != nil {
			return nil, nil, fmt.Errorf("a16 shards=%d: %w", shards, err)
		}
		if !run.EqualToSequential {
			return nil, nil, fmt.Errorf("a16 shards=%d: engine result differs from sequential", shards)
		}
		if run.Errors != 0 {
			return nil, nil, fmt.Errorf("a16 shards=%d: %d requests failed", shards, run.Errors)
		}
		doc.Runs = append(doc.Runs, run)
		rows = append(rows, Row{
			Label:    fmt.Sprintf("shards=%d (%d lanes, %d clients)", shards, shards, shards*a16ClientsPerShard),
			Paper:    "-",
			Measured: fmt.Sprintf("%.0f req/s", run.ThroughputRPS),
			Note: fmt.Sprintf("≡ sequential; %d confined + %d shared ops; PR 4 lane driver: inapplicable",
				run.ConfinedOps, run.SharedOps),
		})
	}
	return doc, rows, nil
}

// A16 reports the sharded engine sweep. The virtual throughput column
// is identical whichever driver produces it — that identity is the
// measurement; host-time scaling is measured separately by perfbench.
func A16() (Result, error) {
	_, rows, err := a16Collect()
	if err != nil {
		return Result{}, err
	}
	return Result{
		ID:     "a16",
		Title:  "sharded engine: per-lane event engines with conservative lookahead",
		Source: "PROTOCOL.md §12; client name caches (§2.3) decide each op's class",
		Rows:   rows,
	}, nil
}

// ShardJSON renders the BENCH_shard.json document, byte-identical
// across runs.
func ShardJSON() ([]byte, error) {
	doc, _, err := a16Collect()
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
