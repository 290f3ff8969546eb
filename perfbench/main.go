// Command perfbench is the repository's host-time benchmark: it boots a
// workload from the internal/rig topologies, drives it through the
// conservative engine (rig.RunWorkloadEngine) from one process at
// GOMAXPROCS=2, checks the outputs, and prints every metric by name with
// its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports the per-layer ones. See README.md.
//
// Usage (from the root of the repository):
//
//	bash perfbench/run.sh --workload zipf-tail --seed 1 --seconds 10 --trace 0
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
	"time"
)

// procs is the GOMAXPROCS every run uses: the container's nproc.
const procs = 2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is what one invocation reports.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// extra metrics are printed with the others but left out of the
	// JSON line (see README.md for why each is).
	extra []metric
	// lines are human-readable detail printed before the metrics.
	lines []string
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one invocation.
type options struct {
	seed      int64
	seconds   time.Duration
	traced    bool
	profiling bool
	spansDir  string
	// inject rewrites each operation's error; only the self-test sets it.
	inject func(client, iter int, err error) error
	// minRounds is the least number of timed rounds, however short
	// --seconds is.
	minRounds int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds of timed rounds to run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile here, labelled by workload and role")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opts := options{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		profiling: *cpuprofile != "",
		spansDir:  *spans,
		minRounds: 3,
	}
	runtime.GOMAXPROCS(procs)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "perfbench: cpuprofile:", err)
			}
		}()
	}

	var res *result
	var err error
	if opts.traced {
		res, err = measureLayers(sp, opts)
	} else {
		res, err = measureEndToEnd(sp, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, sp, opts, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints the human-readable lines, one line per metric, and the
// closing JSON object.
func report(w io.Writer, sp spec, opts options, res *result) error {
	mode := "end-to-end (untraced)"
	if opts.traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  GOMAXPROCS %d  %s\n", sp.name, opts.seed, runtime.GOMAXPROCS(0), mode)
	for _, l := range res.lines {
		fmt.Fprintln(w, "  "+l)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]jm{}}
	for _, m := range res.metrics {
		if _, dup := out.Metrics[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		fmt.Fprintf(w, "%-36s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	for _, m := range res.extra {
		fmt.Fprintf(w, "%-36s %16.6g %s (printed only)\n", m.name, m.value, m.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// timedRounds runs engine rounds of sp until opts.seconds of host time
// have passed (at least opts.minRounds), checking that every round of the
// seed reproduces the warm-up round's virtual results exactly and that the
// workload stays below saturation.
func timedRounds(sp spec, opts options, rc roundConfig) ([]*round, error) {
	// One warm-up round first: the process's own pools and caches fill
	// before anything is timed.
	wrc := rc
	wrc.hist = nil
	warm, err := runRound(sp, opts.seed, wrc)
	if err != nil {
		return nil, err
	}
	rounds := []*round{}
	start := time.Now()
	for len(rounds) < opts.minRounds || time.Since(start) < opts.seconds {
		rd, err := runRound(sp, opts.seed, rc)
		if err != nil {
			return nil, err
		}
		if rd.digest != warm.digest {
			return nil, fmt.Errorf("%s: round %d's virtual results differ from the warm-up round's (digest %016x vs %016x)",
				sp.name, len(rounds), rd.digest, warm.digest)
		}
		rounds = append(rounds, rd)
	}
	return rounds, checkSaturation(sp, warm)
}

func measureEndToEnd(sp spec, opts options) (*result, error) {
	res := &result{correct: true}
	var seq *round
	if sp.equivalence {
		var err error
		if seq, err = runRound(sp, opts.seed, roundConfig{driver: sequentialDriver}); err != nil {
			return nil, err
		}
	}
	hist := newHistogram()
	rounds, err := timedRounds(sp, opts, roundConfig{profiling: opts.profiling, inject: opts.inject, hist: hist})
	if err != nil {
		return nil, err
	}
	if seq != nil {
		if err := sameAsSequential(rounds[0], seq); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		res.note("engine result deep-equals rig.RunWorkload's")
	}
	// Throughput is every round's operations over every round's driver
	// time, and the latency percentiles pool every operation: both move
	// smoothly with the share of rounds the Go scheduler runs in its
	// slower cross-P hand-off regime, where medians of per-round figures
	// jump between the two regimes.
	var tput, p50, p99, setup, heap []float64
	var wall time.Duration
	for _, rd := range rounds {
		res.attempted += rd.res.Requests
		res.failed += rd.failed()
		wall += rd.wall()
		tput = append(tput, float64(rd.res.Requests)/rd.wall().Seconds())
		p50 = append(p50, float64(rd.opP50)/1e3)
		p99 = append(p99, float64(rd.opP99)/1e3)
		setup = append(setup, rd.setup.Seconds())
		heap = append(heap, rd.heapMB)
	}
	res.correct = res.failed == 0
	r0 := rounds[0]
	res.note("%d rounds of %d ops (%d clients on %d lanes); %d host-time samples, %d beyond p99",
		len(rounds), r0.res.Requests, nclients, shards, hist.n, hist.n-uint64(0.99*float64(hist.n)))
	res.note("virtual results identical across all %d rounds (digest %016x)", len(rounds), r0.digest)
	if sp.interarrival > 0 {
		res.note("open loop in virtual time: offered %.0f ops/s; median virtual latency first quarter %v, last quarter %v (guard %.1fx)",
			float64(nclients)/sp.interarrival.Seconds(), r0.satFirst, r0.satLast, saturationFactor)
	}
	res.note("per-round ranges: throughput %.0f..%.0f ops/s, op p50 %.2f..%.2f us, op p99 %.1f..%.1f us, setup %.4f..%.4f s",
		minOf(tput), maxOf(tput), minOf(p50), maxOf(p50), minOf(p99), maxOf(p99), minOf(setup), maxOf(setup))
	res.add("throughput_ops_s", float64(res.attempted)/wall.Seconds(), "ops/s")
	res.add("op_p50_us", hist.quantile(0.50)/1e3, "us")
	res.add("op_p99_us", hist.quantile(0.99)/1e3, "us")
	res.add("setup_s", median(setup), "s")
	res.add("live_heap_mb", median(heap), "MB")
	res.add("sim_p99_ms", float64(r0.simP99)/1e6, "ms")
	// Printed, not in the JSON line: error_rate is 0 on every passing
	// run, and on deep-query the median virtual latency is the bare
	// service time of a lease hit, identical for every seed.
	res.extra = append(res.extra,
		metric{"sim_p50_ms", float64(r0.simP50) / 1e6, "ms"},
		metric{"error_rate", ratio(float64(res.failed), float64(res.attempted)), "ratio"})
	return res, nil
}
