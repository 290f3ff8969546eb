package main

import (
	"context"
	"fmt"
	"runtime/pprof"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fileserver"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/ncache"
	"repro/internal/netsim"
	"repro/internal/popgen"
	"repro/internal/prefix"
	"repro/internal/rig"
)

// The load shape every workload shares: 2 shards, so 2 engine lanes, with
// 4 client sessions each, driven from one process at GOMAXPROCS=2.
const (
	shards          = 2
	clientsPerShard = 4
	nclients        = shards * clientsPerShard
)

// spec is one benchmark workload: how to boot one instance of it from a
// seed, and the sizes one timed round runs at.
type spec struct {
	name string
	// requests is each client's quota of operations in one round.
	requests int
	// population is the number of names on the central prefix server
	// (zipf workloads only).
	population int
	// interarrival is the mean per-client virtual inter-arrival gap of
	// an open-loop workload; zero marks a closed loop.
	interarrival time.Duration
	// equivalence marks workloads whose engine result is checked against
	// rig.RunWorkload's once per invocation.
	equivalence bool
	boot        func(sp spec, seed int64) (*instance, error)
}

// Saturation guard: an open-loop workload fails if the median virtual
// latency of its last quarter of arrivals exceeds the first quarter's by
// more than this factor — the signature of a queue that grows because
// the offered rate is past the simulated system's capacity.
const saturationFactor = 2.0

var specs = []spec{
	{
		// Lease hits on a deep path at the co-resident file-server team:
		// client lease cache, proto codecs, local kernel Send, team
		// dispatch, core.Interpret over 8 components, directory lookup.
		// Nearly every op is Confined, so the 2 lanes overlap.
		name:        "deep-query",
		requests:    5000,
		equivalence: true,
		boot:        bootDeepQuery,
	},
	{
		// The Zipf tail: ~98% of resolutions miss or renew at the central
		// prefix server over the shared wire, each a Shared engine op.
		name:         "zipf-tail",
		requests:     8000,
		population:   100_000,
		interarrival: 50 * time.Millisecond,
		equivalence:  true,
		boot:         bootZipfTail,
	},
	{
		// Writes beside reads: a hot name is redefined every 100 ms of
		// virtual time through the ncache tier's invalidation fan-out.
		name:         "zipf-churn",
		requests:     8000,
		population:   100_000,
		interarrival: 40 * time.Millisecond,
		boot:         bootZipfChurn,
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// instance is one booted workload.
type instance struct {
	clients []*rig.WorkloadClient
	kern    *kernel.Kernel
	net     *netsim.Network
	prefix  *prefix.Server
	tier    *ncache.Tier
	flight  *flight.Recorder
	shards  []*fileserver.FileServer
	// hosts are crashed on teardown, so a round's servers stop and its
	// heap can be collected before the next round boots.
	hosts  []*kernel.Host
	fences engine.Fences

	// draws[c][i] is the name client c resolves in operation i.
	draws [][]string
	// schedule[c][i] is the scheduled virtual arrival (open loop only).
	schedule [][]time.Duration
	// vlat[c][i] is the virtual latency of client c's operation i:
	// completion minus scheduled arrival (open loop) or the operation's
	// own virtual duration (closed loop).
	vlat [][]time.Duration
	pop  *popgen.Population
	// popTime is the host time population generation took.
	popTime time.Duration
	// redefs records the churn workload's redefinitions in firing order.
	redefs   []redefinition
	redefErr error
}

// redefinition is one timed run of the churn workload's redefinition
// closure: host start and end, and the lease holders it notified.
type redefinition struct {
	start, end int64
	holders    uint64
}

func (in *instance) sessions() []*client.Session {
	out := make([]*client.Session, len(in.clients))
	for i, c := range in.clients {
		out[i] = c.Session
	}
	return out
}

// teardown crashes every host, stopping the servers the instance booted.
func (in *instance) teardown() {
	for _, h := range in.hosts {
		h.Crash()
	}
}

// bootLabeled boots sp under pprof labels when profiling, so every server
// goroutine the boot spawns inherits workload=<name>, role=server.
func bootLabeled(sp spec, seed int64, profiling bool) (*instance, error) {
	if !profiling {
		return sp.boot(sp, seed)
	}
	var in *instance
	var err error
	pprof.Do(context.Background(), pprof.Labels("workload", sp.name, "role", "server"), func(context.Context) {
		in, err = sp.boot(sp, seed)
	})
	return in, err
}

func bootDeepQuery(sp spec, seed int64) (*instance, error) {
	sw, err := rig.NewSharedPrefixWorkload(rig.SharedPrefixConfig{
		Shards:          shards,
		ClientsPerShard: clientsPerShard,
		Requests:        sp.requests,
		Team:            2,
		Seed:            seed,
		Lease:           80 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	in := &instance{
		clients: sw.Clients,
		kern:    sw.Kernel,
		net:     sw.Net,
		prefix:  sw.Prefix,
		flight:  sw.Flight,
		shards:  sw.Shards,
		hosts:   append([]*kernel.Host{sw.PrefixHost}, sw.Hosts...),
		draws:   make([][]string, len(sw.Clients)),
		vlat:    make([][]time.Duration, len(sw.Clients)),
	}
	// The seed sets the think time: after each query a client computes
	// for 0–99 µs of virtual time drawn from its own seeded stream, so
	// seeds differ in how the clients' requests interleave at their
	// shard's team. The think is charged inside Op, after the query, so
	// the next operation is classified at the clock it will run at.
	for i, c := range sw.Clients {
		name := fmt.Sprintf("[shard%d]%s", c.Lane, rig.ShardHotPath)
		in.draws[i] = []string{name}
		lat := make([]time.Duration, c.Requests)
		in.vlat[i] = lat
		rnd := popgen.NewRand(uint64(seed)*uint64(len(sw.Clients)) + uint64(i))
		op := c.Op
		c.Op = func(s *client.Session, iter int) error {
			v0 := s.Proc().Now()
			err := op(s, iter)
			lat[iter] = s.Proc().Now() - v0
			s.Proc().ChargeCompute(time.Duration(rnd.Intn(100)) * time.Microsecond)
			return err
		}
	}
	return in, nil
}

func bootZipfTail(sp spec, seed int64) (*instance, error) {
	return bootZipf(sp, seed, 0.99, 80*time.Millisecond, false)
}

func bootZipfChurn(sp spec, seed int64) (*instance, error) {
	in, err := bootZipf(sp, seed, 1.3, time.Second, true)
	if err != nil {
		return nil, err
	}
	if err := addChurn(in); err != nil {
		in.teardown()
		return nil, err
	}
	return in, nil
}

func bootZipf(sp spec, seed int64, skew float64, lease time.Duration, tier bool) (*instance, error) {
	t0 := time.Now()
	pop := popgen.NewPopulation(sp.population, skew, uint64(seed))
	popTime := time.Since(t0)
	zw, err := rig.NewZipfWorkload(rig.ZipfConfig{
		Population:      sp.population,
		Skew:            skew,
		Pop:             pop,
		PopSeed:         uint64(seed),
		Shards:          shards,
		ClientsPerShard: clientsPerShard,
		Arrivals:        sp.requests,
		Interarrival:    sp.interarrival,
		Lease:           lease,
		CacheTier:       tier,
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	return &instance{
		clients:  zw.Clients,
		kern:     zw.Kernel,
		net:      zw.Net,
		prefix:   zw.Prefix,
		tier:     zw.Tier,
		flight:   zw.Flight,
		shards:   zw.Shards,
		hosts:    append([]*kernel.Host{zw.PrefixHost}, zw.Hosts...),
		draws:    zw.Draws,
		schedule: zw.Schedule,
		vlat:     zw.Latencies,
		pop:      pop,
		popTime:  popTime,
	}, nil
}

// Churn shape: every churnEvery of virtual time the next of the churnHot
// most popular names, in rank order, is redefined. The order is fixed
// rather than drawn from the seed: a seeded order moved the virtual p99
// by ±10% between seeds, noise that would hide a real change.
const (
	churnEvery = 100 * time.Millisecond
	churnHot   = 50
)

// addChurn schedules the churn workload's redefinitions as chaos.Custom
// events fired at engine fences. Each is an admin DeleteName+AddName over
// IPC that rebinds the name to the same shard, so lease holders are
// invalidated while the engine's lane-confinement proof still holds.
func addChurn(in *instance) error {
	var last time.Duration
	for _, row := range in.schedule {
		if n := len(row); n > 0 && row[n-1] > last {
			last = row[n-1]
		}
	}
	hot := min(churnHot, len(in.pop.Names))
	admin, err := in.hosts[0].NewProcess("bench-admin")
	if err != nil {
		return fmt.Errorf("churn admin: %w", err)
	}
	adm := client.New(admin, in.prefix.PID(), in.shards[0].RootPair(), "admin")
	var events []chaos.Event
	for k, at := 0, churnEvery; at <= last; k, at = k+1, at+churnEvery {
		rank := k % hot
		name := in.pop.Names[rank]
		pair := in.shards[rank%len(in.shards)].RootPair()
		events = append(events, chaos.Event{At: at, Action: chaos.Custom, Note: "redefine " + name, Do: func() error {
			start := hostNow()
			if d := at - admin.Now(); d > 0 {
				admin.ChargeCompute(d)
			}
			before := in.prefix.LeaseStats().HoldersNotified
			err := adm.DeleteName(name)
			if err == nil {
				err = adm.AddName(name, pair)
			}
			in.redefs = append(in.redefs, redefinition{start: start, end: hostNow(), holders: in.prefix.LeaseStats().HoldersNotified - before})
			if err != nil && in.redefErr == nil {
				in.redefErr = fmt.Errorf("redefine %q at %v: %w", name, at, err)
			}
			return err
		}})
	}
	in.fences = rig.ChaosFences(chaos.New(in.kern, events))
	return nil
}
