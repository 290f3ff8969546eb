package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// A18's overloaded inter-arrival gap: 8 clients at 2 ms offer 4000
// resolutions/s against a simulated capacity near 200/s. The capacity
// measurement runs the open-loop workloads there on purpose.
const saturatingInterarrival = 2 * time.Millisecond

// measureLayers is the traced run: per-layer metrics timed from outside,
// by wrapping the workload's hooks and calling each module's public API.
func measureLayers(sp spec, opts options) (*result, error) {
	res := &result{correct: true}

	// The sequential reference: equivalence (where checked) and the
	// engine's speedup over it.
	seqs, err := extraRounds(sp, opts, roundConfig{driver: sequentialDriver})
	if err != nil {
		return nil, err
	}

	// Untraced and traced rounds alternate, so both see the same machine
	// state; their throughput ratio is the tracing overhead. The first
	// traced round keeps its records for the span file and hosts the
	// isolated measurements on its booted instance.
	var plain, traced []*round
	var iso *isolated
	// Five eighths of the run alternate; an eighth each goes to the
	// sequential, one-CPU and flight-recorder-off comparisons.
	start := time.Now()
	for len(traced) < opts.minRounds || time.Since(start) < opts.seconds*5/8 {
		rd, err := runRound(sp, opts.seed, roundConfig{profiling: opts.profiling})
		if err != nil {
			return nil, err
		}
		plain = append(plain, rd)
		rc := roundConfig{traced: true, profiling: opts.profiling}
		if len(traced) == 0 {
			rc.keep = true
			rc.after = func(in *instance, rd *round) error {
				iso, err = measureIsolated(sp, in, rd, opts.seed)
				return err
			}
		}
		td, err := runRound(sp, opts.seed, rc)
		if err != nil {
			return nil, err
		}
		traced = append(traced, td)
		for _, r := range []*round{rd, td} {
			if r.digest != plain[0].digest {
				return nil, fmt.Errorf("%s: virtual results differ between rounds (digest %016x vs %016x)", sp.name, r.digest, plain[0].digest)
			}
		}
	}
	if err := checkSaturation(sp, plain[0]); err != nil {
		return nil, err
	}
	if sp.equivalence {
		if err := sameAsSequential(plain[0], seqs[0]); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
		res.note("engine result deep-equals rig.RunWorkload's")
	}
	spansPath := filepath.Join(opts.spansDir, fmt.Sprintf("%s-seed%d.tsv", sp.name, opts.seed))
	if err := writeSpans(spansPath, traced[0]); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	traced[0].recs = nil
	res.note("spans of one traced round written to %s", spansPath)

	// One CPU against two, and the always-on flight recorder removed.
	prev := runtime.GOMAXPROCS(1)
	one, err := extraRounds(sp, opts, roundConfig{})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	noFlight, err := extraRounds(sp, opts, roundConfig{noFlight: true})
	if err != nil {
		return nil, err
	}

	// The simulated capacity of an open-loop workload: its virtual
	// throughput when offered far more than it can serve.
	capacity := plain[0].capacity
	if sp.interarrival > 0 {
		sat := sp
		sat.interarrival = saturatingInterarrival
		sat.requests = sp.requests / 4
		rd, err := runRound(sat, opts.seed, roundConfig{})
		if err != nil {
			return nil, err
		}
		capacity = rd.capacity
	}

	layerMetrics(res, sp, plain, traced, seqs, one, noFlight, iso, capacity)
	return res, nil
}

// extraRounds runs engine rounds under rc for an eighth of the run (at
// least two).
func extraRounds(sp spec, opts options, rc roundConfig) ([]*round, error) {
	var out []*round
	start := time.Now()
	for len(out) < 2 || time.Since(start) < opts.seconds/8 {
		rd, err := runRound(sp, opts.seed, rc)
		if err != nil {
			return nil, err
		}
		out = append(out, rd)
	}
	return out, nil
}

func medianWall(rounds []*round) float64 {
	var xs []float64
	for _, rd := range rounds {
		xs = append(xs, rd.wall().Seconds())
	}
	return median(xs)
}

// layerMetrics adds every per-layer metric, the span table and the
// budget to res.
func layerMetrics(res *result, sp spec, plain, traced, seqs, one, noFlight []*round, iso *isolated, capacity float64) {
	st := &spanStats{}
	for _, rd := range traced {
		st.merge(rd.spans)
	}
	// Counters are summed over the untraced rounds: they are virtual-time
	// results, identical in every round of the seed.
	var ops, failed, mallocs, allocBytes, envGets, envNews, flightTotal uint64
	var hits, misses, renewals, invals, grants, negatives uint64
	var frames, bytes uint64
	var wireBusy, makespan time.Duration
	var gcCPU, totalCPU float64
	var tierHits, tierLookups, tierProp, tierInval uint64
	for _, rd := range plain {
		ops += uint64(rd.res.Requests)
		failed += uint64(rd.failed())
		mallocs += rd.mallocs
		allocBytes += rd.allocBytes
		envGets += rd.envGets
		envNews += rd.envNews
		flightTotal += rd.flightTotal
		hits += uint64(rd.lease.Hits)
		misses += uint64(rd.lease.Misses)
		renewals += uint64(rd.lease.Renewals)
		invals += uint64(rd.lease.Invalidations)
		grants += rd.prefixLease.Grants
		negatives += rd.prefixLease.Negatives
		frames += rd.net.Packets
		bytes += rd.net.Bytes
		wireBusy += rd.net.WireBusyFor
		makespan += rd.res.Makespan
		gcCPU += rd.gcCPU
		totalCPU += rd.totalCPU
		tierHits += rd.tier.Hits
		tierLookups += rd.tier.Hits + rd.tier.Misses + rd.tier.NegativeHits
		tierProp += rd.tier.Propagated
		tierInval += rd.tier.Invalidations
	}
	res.attempted = int(ops)
	res.failed = int(failed)
	res.correct = failed == 0
	per := func(n uint64) float64 { return ratio(float64(n), float64(ops)) }
	tops := float64(st.ops)

	wall := medianWall(plain)
	redefineNs := iso.redefineNs
	holders := iso.holdersNotified
	if st.redefines > 0 {
		var xs []float64
		for _, ns := range st.redefineNs {
			xs = append(xs, float64(ns))
		}
		redefineNs = median(xs)
		holders = ratio(float64(st.holders), float64(st.redefines))
	}
	popS := iso.populationS
	if plain[0].popTime > 0 {
		var xs []float64
		for _, rd := range plain {
			xs = append(xs, rd.popTime.Seconds())
		}
		popS = median(xs)
	}
	var setups []float64
	for _, rd := range plain {
		setups = append(setups, rd.setup.Seconds())
	}
	opNs := ratio(float64(st.op), tops)

	res.add("error_rate", per(failed), "ratio")
	res.add("rig.driver_self_ns_per_op", ratio(float64(st.lane-st.root), tops), "ns")
	res.add("engine.gate_wait_ns_per_op", ratio(float64(st.gateWait), tops), "ns")
	res.add("engine.gate_wait_p99_ns", float64(quantile(st.gateWaits, 0.99)), "ns")
	res.add("engine.confined_share", ratio(float64(st.confined), tops), "ratio")
	res.add("engine.reproofs_per_kop", 1000*ratio(float64(st.reproofs), tops), "count")
	res.add("engine.gate_ns", iso.gateNs, "ns")
	res.add("engine.speedup_vs_sequential", ratio(medianWall(seqs), wall), "x")
	res.add("engine.speedup_2cpu_vs_1cpu", ratio(medianWall(one), wall), "x")
	res.add("client.op_ns", opNs, "ns")
	res.add("client.lease_probe_ns", iso.leaseProbeNs, "ns")
	res.add("client.lease_hit_rate", ratio(float64(hits), float64(hits+misses+renewals)), "ratio")
	res.add("client.renewals_per_op", per(renewals), "count")
	res.add("client.invalidations_per_op", per(invals), "count")
	res.add("proto.csname_roundtrip_ns", iso.csnameNs, "ns")
	res.add("proto.csname_allocs", iso.csnameAllocs, "count")
	res.add("proto.descriptor_roundtrip_ns", iso.descriptorNs, "ns")
	res.add("proto.descriptor_allocs", iso.descAllocs, "count")
	res.add("kernel.send_local_ns", iso.sendLocalNs, "ns")
	res.add("kernel.send_remote_ns", iso.sendRemoteNs, "ns")
	res.add("kernel.send_allocs", iso.sendAllocs, "count")
	res.add("kernel.envpool_miss_ratio", ratio(float64(envNews), float64(envGets)), "ratio")
	res.add("netsim.unicast_ns", iso.unicastNs, "ns")
	res.add("netsim.frames_per_op", per(frames), "count")
	res.add("netsim.bytes_per_op", per(bytes), "B")
	res.add("netsim.wire_busy_share", ratio(float64(wireBusy), float64(makespan)), "ratio")
	res.add("prefix.grants_per_op", per(grants), "count")
	res.add("prefix.redefine_ns", redefineNs, "ns")
	res.add("prefix.holders_notified_per_redefine", holders, "count")
	res.add("ncache.hit_rate", ratio(float64(tierHits), float64(tierLookups)), "ratio")
	res.add("ncache.propagated_per_invalidation", ratio(float64(tierProp), float64(tierInval)), "count")
	res.add("nametree.longest_prefix_ns", iso.longestPrefixNs, "ns")
	res.add("nametree.get_ns", iso.getNs, "ns")
	res.add("nametree.insert_delete_ns", iso.insertDeleteNs, "ns")
	res.add("nametree.lookup_allocs", iso.lookupAllocs, "count")
	res.add("core.interpret_ns", iso.interpretNs, "ns")
	res.add("fileserver.describe_ns", iso.describeNs, "ns")
	res.add("popgen.population_s", popS, "s")
	res.add("flight.record_ns", iso.recordNs, "ns")
	res.add("flight.records_per_op", per(flightTotal), "count")
	res.add("flight.overhead_share", 1-ratio(medianWall(noFlight), wall), "ratio")
	res.add("gc.allocs_per_op", per(mallocs), "count")
	res.add("gc.bytes_per_op", per(allocBytes), "B")
	res.add("gc.cpu_share", ratio(gcCPU, totalCPU), "ratio")
	res.add("trace.overhead_share", 1-ratio(wall, medianWall(traced)), "ratio")
	offered := 0.0
	if sp.interarrival > 0 {
		offered = float64(nclients) / sp.interarrival.Seconds()
	}
	res.add("sim.offered_ops_s", offered, "ops/s")
	res.add("sim.capacity_ops_s", capacity, "ops/s")

	// The budget: isolated cost × calls per operation, for every layer
	// inside the wrapped Op, against the measured client.op_ns.
	remote := per(frames) / 2 // a remote transaction is a request and a reply frame
	local := per(envGets) - remote
	if local < 0 {
		local = 0
	}
	deep := 0.0
	if sp.population == 0 {
		deep = 1
	}
	type line struct {
		layer string
		calls float64
		ns    float64
	}
	budget := []line{
		{"client.lease_probe", 1, iso.leaseProbeNs},
		{"proto.csname_roundtrip", per(envGets), iso.csnameNs},
		{"proto.descriptor_roundtrip", deep, iso.descriptorNs},
		{"kernel.send_local", local, iso.sendLocalNs},
		{"kernel.send_remote (incl. netsim)", remote, iso.sendRemoteNs},
		{"nametree.get (prefix server)", per(grants + negatives), iso.getNs},
		{"fileserver.describe (incl. core)", deep, iso.describeNs},
		{"flight.record", per(flightTotal), iso.recordNs},
	}
	explained := 0.0
	res.note("budget per operation (isolated ns x calls per op) vs measured client.op_ns:")
	for _, l := range budget {
		explained += l.calls * l.ns
		res.note("  %-36s %8.3f calls x %10.1f ns = %10.1f ns", l.layer, l.calls, l.ns, l.calls*l.ns)
	}
	res.note("  %-36s %46.1f ns", "explained", explained)
	res.note("  %-36s %46.1f ns", "measured client.op_ns", opNs)
	res.note("  %-36s %46.1f ns (%.1f%%)", "unexplained remainder", opNs-explained, 100*ratio(opNs-explained, opNs))
	res.add("budget.unexplained_share", ratio(opNs-explained, opNs), "ratio")

	res.note("spans over %d traced rounds (%d ops):", len(traced), st.ops)
	for _, row := range st.table() {
		res.note("  %s", row)
	}
	res.note("rounds: %d untraced, %d traced, %d sequential, %d at GOMAXPROCS=1, %d without the flight recorder; median setup %.4g s",
		len(plain), len(traced), len(seqs), len(one), len(noFlight), median(setups))
	if sp.interarrival > 0 {
		res.note("open loop in virtual time: offered %.0f ops/s against a measured capacity of %.0f ops/s", offered, capacity)
	}
}
