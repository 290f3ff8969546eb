// Command vbench regenerates every quantitative result in the paper's
// evaluation (§3.1, §6) and the ablations derived from its arguments
// (§2.2, §5.6, §7), printing paper-vs-measured tables.
//
// Usage:
//
//	vbench                       # run every experiment
//	vbench t1 a2                 # run selected experiments
//	vbench chaos                 # fault-injection sweep (alias for a10)
//	vbench -list                 # list experiment ids
//	vbench -json BENCH.json      # also write results as JSON
//	vbench -trace TRACE.json     # export the canonical single-client trace
//	vbench -metrics METRICS.json # export the A14 metrics document (deterministic)
//	vbench -replica REPLICA.json # export the A15 replication document (deterministic)
//	vbench -shard SHARD.json     # export the A16 sharded-engine document (deterministic)
//	vbench -cache CACHE.json     # export the A17 lease-coherence document (deterministic)
//	vbench -zipf ZIPF.json       # export the A18 population-scale document (deterministic)
//	vbench -obs OBS.json         # export the A19 observability document (deterministic)
//	vbench -zipf Z.json -trace T.json  # also export a sampled 10⁶-name population trace
//	vbench -zipf Z.json -cpuprofile cpu.pprof        # any mode can be profiled
//
// Host-time (wall-clock) performance is measured by the separate
// perfbench module, not by vbench:
//
//	bash perfbench/run.sh --workload deep-query --seed 1 --seconds 10 --trace 0
//	cd perfbench && go test ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(1)
	}
}

// doc is one deterministic document vbench exports: -<flag> PATH runs
// the document's legs and writes it to PATH. Its committed golden is
// BENCH_<flag>.json at the repository root, the name the Makefile's
// DOCS list, bench-% rule and golden-guard use.
type doc struct {
	flag  string
	what  string // "wrote <what> to PATH"
	usage string
	build func() ([]byte, error)
}

// golden is the committed golden file's path, relative to the
// repository root.
func (d doc) golden() string { return "BENCH_" + d.flag + ".json" }

// docs are exported in this order when several flags are given.
var docs = []doc{
	{"metrics", "metrics document", "run the A14 metrics legs and write the deterministic metrics document (BENCH_metrics.json schema) to this file", experiments.MetricsJSON},
	{"replica", "replication document", "run the A15 replicated chaos leg and write the deterministic replication document (BENCH_replica.json schema) to this file", experiments.ReplicaJSON},
	{"shard", "sharded-engine document", "run the A16 sharded-engine sweep and write the deterministic shard document (BENCH_shard.json schema) to this file", experiments.ShardJSON},
	{"cache", "lease-coherence document", "run the A17 lease-coherence legs and write the deterministic cache document (BENCH_cache.json schema) to this file", experiments.CacheJSON},
	{"zipf", "population-scale document", "run the A18 population-scale legs and write the deterministic zipf document (BENCH_zipf.json schema) to this file; with -trace, also export a sampled million-name population trace", experiments.ZipfJSON},
	{"obs", "observability document", "run the A19 observability legs and write the deterministic obs document (BENCH_obs.json schema) to this file", experiments.ObsJSON},
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	score := fs.Bool("score", false, "print the reproduction scorecard and exit")
	jsonPath := fs.String("json", "", "also write per-experiment results as JSON to this file")
	tracePath := fs.String("trace", "", "export the canonical single-client trace (span tree + wire frames) as JSON to this file")
	docPaths := make(map[string]*string, len(docs))
	for _, d := range docs {
		docPaths[d.flag] = fs.String(d.flag, "", d.usage)
	}
	popTrace := fs.Int("population", 1_000_000, "with -zipf and -trace together: population of the sampled trace export")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	heapProfile := fs.String("heapprofile", "", "write a heap profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The profile flags cover every mode: CPU from here to exit, heap
	// after the last workload retires.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *heapProfile != "" {
		defer func() {
			f, err := os.Create(*heapProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vbench: heapprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "vbench: heapprofile:", err)
			}
		}()
	}
	if *list {
		fmt.Fprintln(w, strings.Join(experiments.IDs(), "\n"))
		return nil
	}
	if *score {
		checks, err := experiments.Scorecard()
		if err != nil {
			return err
		}
		experiments.PrintScorecard(w, checks)
		return nil
	}

	exported := false
	for _, d := range docs {
		path := *docPaths[d.flag]
		if path == "" {
			continue
		}
		data, err := d.build()
		if err != nil {
			return fmt.Errorf("%s: %w", d.flag, err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Fprintf(w, "wrote %s to %s\n", d.what, path)
		exported = true
	}
	// Document exports alone run no experiments; with -trace they
	// continue into the trace export below.
	if exported && len(fs.Args()) == 0 && *tracePath == "" {
		return nil
	}

	ids := fs.Args()
	if *tracePath != "" {
		if *docPaths["zipf"] != "" {
			// Combined -zipf -trace: the population-scale acceptance run.
			// The full tracer is O(ops) and cannot hold a million-name
			// workload; the sampled tracer retains O(k) spans, so this
			// export completes at any population.
			data, pt, err := experiments.PopulationTrace(*popTrace)
			if err != nil {
				return fmt.Errorf("population trace: %w", err)
			}
			if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
				return fmt.Errorf("write %s: %w", *tracePath, err)
			}
			fmt.Fprintf(w, "wrote sampled population trace to %s (%d names, %d ops, %d/%d roots retained, %d spans)\n",
				*tracePath, pt.Population, pt.TotalOps, pt.RootsRetained, pt.RootsSeen, pt.RetainedSpans)
		} else {
			data, err := experiments.CanonicalTrace()
			if err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			if err := os.WriteFile(*tracePath, data, 0o644); err != nil {
				return fmt.Errorf("write %s: %w", *tracePath, err)
			}
			fmt.Fprintf(w, "wrote canonical trace to %s\n", *tracePath)
		}
		// -trace alone exports the trace without running every experiment.
		if len(ids) == 0 {
			return nil
		}
	}
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	fmt.Fprintln(w, "V-System distributed name interpretation — paper reproduction")
	fmt.Fprintln(w, "(virtual-time measurements on the simulated 3 Mbit Ethernet testbed)")
	fmt.Fprintln(w)
	var results []experiments.Result
	for _, id := range ids {
		res, err := experiments.Run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		experiments.Print(w, res)
		results = append(results, res)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, results); err != nil {
			return fmt.Errorf("write %s: %w", *jsonPath, err)
		}
	}
	return nil
}

// benchDoc is the -json output schema: the experiment results verbatim,
// wrapped with enough metadata to interpret the file on its own.
type benchDoc struct {
	Tool        string               `json:"tool"`
	Description string               `json:"description"`
	Results     []experiments.Result `json:"results"`
}

func writeJSON(path string, results []experiments.Result) error {
	doc := benchDoc{
		Tool:        "vbench",
		Description: "virtual-time measurements on the simulated 3 Mbit Ethernet testbed",
		Results:     results,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
