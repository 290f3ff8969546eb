package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/ncache"
	"repro/internal/netsim"
	"repro/internal/prefix"
	"repro/internal/rig"
	"repro/internal/vtime"
)

var epoch = time.Now()

// hostNow is host (wall-clock, monotonic) time in ns since start-up.
func hostNow() int64 { return int64(time.Since(epoch)) }

// opRec is the host-time record of one operation. t0 and t3 are always
// taken; t1, t2 and the re-proof fields only on a traced round.
type opRec struct {
	t0 int64 // first Classify call: the op's start, just before the engine gate
	t1 int64 // first Classify return
	t2 int64 // wrapped Op start
	t3 int64 // wrapped Op return
	// reproof is the host time spent in re-proof Classify calls, made
	// after a fence fired between classification and clearance.
	reproof  int64
	reproofs int32
	cls      engine.Class
	failed   bool
}

// driver selects how a round runs its clients.
type driver int

const (
	engineDriver     driver = iota // rig.RunWorkloadEngine, the measured driver
	sequentialDriver               // rig.RunWorkload, the reference
)

// roundConfig selects what one round measures.
type roundConfig struct {
	driver driver
	// traced takes the extra span stamps (t1, t2, re-proofs).
	traced bool
	// noFlight removes the kernel's flight recorder before the run.
	noFlight bool
	// profiling runs boot and every Op under pprof labels.
	profiling bool
	// inject, when non-nil, rewrites each operation's error (self-test
	// of the failure accounting).
	inject func(client, iter int, err error) error
	// keep retains the per-operation records.
	keep bool
	// hist, when non-nil, receives every operation's host time.
	hist *histogram
	// after runs on the still-booted instance once the round's figures
	// are collected: the isolated per-layer measurements use it.
	after func(in *instance, rd *round) error
}

// round is the outcome of booting, running and tearing down one
// instance. Per-operation records are reduced to summaries before the
// next round boots, so rounds do not accumulate heap; recs survive only
// where roundConfig.keep asks.
type round struct {
	setup   time.Duration
	popTime time.Duration
	start   int64 // host time the driver was called
	end     int64 // host time the driver returned
	res     *rig.WorkloadResult
	digest  uint64
	heapMB  float64

	// Host time per operation (engine rounds): first Classify call to
	// the wrapped Op's return.
	opP50, opP99 int64
	// Virtual latency percentiles and the saturation quarters.
	simP50, simP99    time.Duration
	satFirst, satLast time.Duration
	capacity          float64 // completed ops per virtual second
	spans             *spanStats
	recs              [][]opRec
	lanes             []int
	vlat              [][]time.Duration
	schedule          [][]time.Duration
	draws             [][]string
	redefs            []redefinition

	lease       client.LeaseStats
	prefixLease prefix.LeaseStats
	tier        ncache.Stats
	net         netsim.Stats
	flightTotal uint64
	envGets     uint64
	envNews     uint64
	mallocs     uint64
	allocBytes  uint64
	gcCPU       float64
	totalCPU    float64
}

func (r *round) wall() time.Duration { return time.Duration(r.end - r.start) }

func (r *round) failed() int {
	n := 0
	for _, c := range r.res.Clients {
		n += c.Errors
	}
	return n
}

// instrument wraps every client's Classify and Op hooks with host-time
// stamps, recording into the returned [client][iter] matrix. The
// wrappers run on the client's lane goroutine only, so the records need
// no locking.
func instrument(in *instance, sp spec, rc roundConfig) [][]opRec {
	recs := make([][]opRec, len(in.clients))
	var labels context.Context
	if rc.profiling {
		labels = pprof.WithLabels(context.Background(), pprof.Labels("workload", sp.name, "role", "client"))
	}
	for i, c := range in.clients {
		rs := make([]opRec, c.Requests)
		recs[i] = rs
		classified := -1
		classify := c.Classify
		c.Classify = func(s *client.Session, iter int) engine.Class {
			r := &rs[iter]
			if iter != classified {
				classified = iter
				r.t0 = hostNow()
				r.cls = classify(s, iter)
				if rc.traced {
					r.t1 = hostNow()
				}
				return r.cls
			}
			r.reproofs++
			if !rc.traced {
				return classify(s, iter)
			}
			t := hostNow()
			cls := classify(s, iter)
			r.reproof += hostNow() - t
			return cls
		}
		op := c.Op
		c.Op = func(s *client.Session, iter int) error {
			r := &rs[iter]
			if rc.traced {
				r.t2 = hostNow()
			}
			var err error
			if labels != nil {
				pprof.SetGoroutineLabels(labels)
				err = op(s, iter)
				pprof.SetGoroutineLabels(context.Background())
			} else {
				err = op(s, iter)
			}
			if rc.inject != nil {
				err = rc.inject(i, iter, err)
			}
			r.t3 = hostNow()
			r.failed = err != nil
			return err
		}
	}
	return recs
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// runRound boots one instance of sp, drives it once, collects every
// counter the report needs, runs rc.after (if any) on the still-booted
// instance, and tears the instance down.
func runRound(sp spec, seed int64, rc roundConfig) (*round, error) {
	t0 := time.Now()
	in, err := bootLabeled(sp, seed, rc.profiling)
	setup := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", sp.name, err)
	}
	defer in.teardown()
	if rc.noFlight {
		in.kern.SetFlight(nil)
	}
	rd := &round{setup: setup, popTime: in.popTime}
	var recs [][]opRec
	if rc.driver == engineDriver {
		recs = instrument(in, sp, rc)
	} else if in.fences.Next != nil {
		pumpFencesPerOp(in)
	}

	net0 := in.net.Stats()
	gets0, news0, _ := kernel.EnvPoolStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := readCPU()

	rd.start = hostNow()
	if rc.driver == engineDriver {
		rd.res = rig.RunWorkloadEngine(in.clients, rig.EngineOptions{Fences: in.fences})
	} else {
		rd.res = rig.RunWorkload(in.clients)
	}
	rd.end = hostNow()

	gc1, cpu1 := readCPU()
	runtime.ReadMemStats(&ms1)
	gets1, news1, _ := kernel.EnvPoolStats()
	rd.gcCPU, rd.totalCPU = gc1-gc0, cpu1-cpu0
	rd.mallocs = ms1.Mallocs - ms0.Mallocs
	rd.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rd.envGets, rd.envNews = gets1-gets0, news1-news0
	net1 := in.net.Stats()
	rd.net = netsim.Stats{
		Packets:     net1.Packets - net0.Packets,
		Bytes:       net1.Bytes - net0.Bytes,
		Broadcasts:  net1.Broadcasts - net0.Broadcasts,
		Multicasts:  net1.Multicasts - net0.Multicasts,
		Drops:       net1.Drops - net0.Drops,
		WireBusyFor: net1.WireBusyFor - net0.WireBusyFor,
	}
	for _, s := range in.sessions() {
		st := s.LeaseCacheStats()
		rd.lease.Hits += st.Hits
		rd.lease.Misses += st.Misses
		rd.lease.NegativeHits += st.NegativeHits
		rd.lease.Renewals += st.Renewals
		rd.lease.Invalidations += st.Invalidations
		rd.lease.Stale += st.Stale
	}
	rd.prefixLease = in.prefix.LeaseStats()
	if in.tier != nil {
		rd.tier = in.tier.Stats()
	}
	if in.flight != nil {
		rd.flightTotal = in.flight.Total()
	}
	rd.redefs = in.redefs
	if in.redefErr != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, in.redefErr)
	}
	if want := nclients * sp.requests; rd.res.Requests != want {
		return nil, fmt.Errorf("%s: %d operations attempted, want %d", sp.name, rd.res.Requests, want)
	}

	// Live heap with the workload still referenced: the instance's whole
	// simulated world, not the garbage its run left behind.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rd.heapMB = float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(in)

	rd.digest = virtualDigest(rd, in.vlat)
	var vl []int64
	for _, row := range in.vlat {
		for _, v := range row {
			vl = append(vl, int64(v))
		}
	}
	rd.simP50, rd.simP99 = time.Duration(quantile(vl, 0.50)), time.Duration(quantile(vl, 0.99))
	if in.schedule != nil {
		rd.satFirst, rd.satLast = saturation(in.schedule, in.vlat)
		rd.capacity = openLoopCapacity(in.schedule, in.vlat)
	} else {
		rd.capacity = rd.res.Throughput()
	}
	if recs != nil {
		var lat []int64
		for _, rs := range recs {
			for _, r := range rs {
				lat = append(lat, r.t3-r.t0)
				if rc.hist != nil {
					rc.hist.add(r.t3 - r.t0)
				}
			}
		}
		rd.opP50, rd.opP99 = quantile(lat, 0.50), quantile(lat, 0.99)
	}
	for _, c := range in.clients {
		rd.lanes = append(rd.lanes, c.Lane)
	}
	if rc.traced {
		rd.spans = summarizeSpans(recs, rd.lanes, rd.start, rd.redefs)
	}
	if rc.keep {
		rd.recs = recs
	}
	if rc.after != nil {
		if err := rc.after(in, rd); err != nil {
			return nil, fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	return rd, nil
}

// pumpFencesPerOp gives the sequential driver the fence schedule the
// engine fires at quiescent cuts, pumped after every operation instead.
func pumpFencesPerOp(in *instance) {
	f := in.fences
	var fired vtime.Time = -1
	tick := func(now time.Duration) {
		for {
			at, ok := f.Next(fired)
			if !ok || at > now {
				return
			}
			f.Fire(at)
			fired = at
		}
	}
	for _, c := range in.clients {
		c.Tick = tick
	}
}

// checkSaturation fails an open-loop round whose simulated system ran
// past saturation.
func checkSaturation(sp spec, rd *round) error {
	if sp.interarrival > 0 && float64(rd.satLast) > saturationFactor*float64(rd.satFirst) {
		return fmt.Errorf("%s: past saturation: median virtual latency %v in the last quarter of arrivals vs %v in the first (limit %.1fx)",
			sp.name, rd.satLast, rd.satFirst, saturationFactor)
	}
	return nil
}

// saturation returns the median virtual latency of the first and of the
// last quarter of all arrivals, in scheduled-arrival order.
func saturation(schedule, vlat [][]time.Duration) (first, last time.Duration) {
	type op struct{ at, lat time.Duration }
	var ops []op
	for c := range schedule {
		for i, at := range schedule[c] {
			ops = append(ops, op{at, vlat[c][i]})
		}
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	q := len(ops) / 4
	if q == 0 {
		return 0, 0
	}
	lats := func(part []op) []int64 {
		out := make([]int64, len(part))
		for i, o := range part {
			out[i] = int64(o.lat)
		}
		return out
	}
	return time.Duration(quantile(lats(ops[:q]), 0.5)), time.Duration(quantile(lats(ops[len(ops)-q:]), 0.5))
}

// openLoopCapacity is the virtual throughput of an open-loop round:
// completed operations over the span from the first scheduled arrival
// to the last completion. Past saturation it is the simulated system's
// capacity.
func openLoopCapacity(schedule, vlat [][]time.Duration) float64 {
	first, last := time.Duration(-1), time.Duration(0)
	n := 0
	for c := range schedule {
		for i, at := range schedule[c] {
			if first < 0 || at < first {
				first = at
			}
			if done := at + vlat[c][i]; done > last {
				last = done
			}
			n++
		}
	}
	return ratio(float64(n), (last - first).Seconds())
}

// virtualDigest hashes a round's virtual-time results: the driver
// result, every operation's virtual latency, and the lease, tier and
// prefix counters. Rounds of one seed must agree on it exactly.
func virtualDigest(r *round, vlat [][]time.Duration) uint64 {
	h := fnv.New64a()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	put(int64(r.res.Requests), int64(r.res.Makespan))
	for _, c := range r.res.Clients {
		put(int64(c.Completed), int64(c.Errors), int64(c.TotalLatency), int64(c.Finish))
	}
	for _, row := range vlat {
		for _, v := range row {
			put(int64(v))
		}
	}
	l := r.lease
	put(int64(l.Hits), int64(l.Misses), int64(l.NegativeHits), int64(l.Renewals), int64(l.Invalidations), int64(l.Stale))
	p := r.prefixLease
	put(int64(p.Grants), int64(p.Negatives), int64(p.Invalidations), int64(p.HoldersNotified))
	t := r.tier
	put(int64(t.Hits), int64(t.Misses), int64(t.NegativeHits), int64(t.Renewals), int64(t.Invalidations), int64(t.Propagated), int64(t.Forwards))
	return h.Sum64()
}

// sameAsSequential checks the engine round against the sequential
// reference: the driver results must be deeply equal, and the virtual
// digest — every operation's virtual latency and the lease, tier and
// prefix counters — identical.
func sameAsSequential(eng, seq *round) error {
	if !reflect.DeepEqual(eng.res, seq.res) {
		return fmt.Errorf("engine result differs from rig.RunWorkload's (makespan %v vs %v)", eng.res.Makespan, seq.res.Makespan)
	}
	if eng.digest != seq.digest {
		return fmt.Errorf("engine virtual results differ from rig.RunWorkload's (digest %016x vs %016x)", eng.digest, seq.digest)
	}
	return nil
}
