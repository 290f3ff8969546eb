// Shared-prefix-server workload topology: the rig PR 4's parallel
// driver could not go wide on, and the conservative engine's reason to
// exist.
//
// Every shard keeps its file server and clients co-resident (as in
// shards.go), but name resolution is centralized: one prefix server on
// its own host maps every shard's context prefix. A client's first use
// of its prefix walks the shared wire to that server — substrate state
// whose outcome depends on operation order, so those requests are
// classified Shared and commit in global virtual-time order. Once the
// client's name cache holds the resolution, requests route directly to
// the co-resident shard server — provably lane-confined (the classifier
// checks the cached route's host shard label rather than assuming
// co-residency) — and the lanes genuinely overlap. The topology thereby
// exercises both halves of the conservative protocol in one workload,
// with the paper's own mechanism (the §2.3 per-client name cache)
// deciding which half each request falls in.
package rig

import (
	"fmt"

	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fileserver"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/ncache"
	"repro/internal/netsim"
	"repro/internal/prefix"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// SharedPrefixConfig shapes a shared-prefix workload.
type SharedPrefixConfig struct {
	// Shards is the number of file-server shards (= engine lanes).
	Shards int
	// ClientsPerShard is the number of co-resident clients per shard.
	ClientsPerShard int
	// Requests is each client's quota of Query iterations.
	Requests int
	// Team is each shard file server's team size (0/1 = single process).
	Team int
	// Seed drives the network's deterministic RNG.
	Seed int64
	// FlushEvery, when positive, flushes each client's name cache every
	// FlushEvery iterations (fresh program instances start cold, §2.3),
	// forcing periodic Shared re-resolutions through the prefix server.
	// Zero means only iteration 0 misses. It is the pre-lease compat
	// knob: with Lease set, flushes are skipped — lease coherence makes
	// the blind flush redundant (PROTOCOL.md §13).
	FlushEvery int
	// Lease, when positive, replaces the invalidate-and-retry name cache
	// with the lease-coherent hierarchy: the prefix server grants leases
	// of this length, clients run the lease cache with callback
	// invalidation, and expired entries revalidate instead of flushing.
	Lease time.Duration
	// CacheTier, when true (requires Lease), interposes a shared ncache
	// tier co-resident with the prefix host: clients address the tier,
	// which holds upstream leases and re-grants bounded sub-leases.
	CacheTier bool
	// AutoTuneMax, when positive (requires Lease, which becomes the
	// floor), replaces the fixed lease length with the per-name
	// auto-tuner (PROTOCOL.md §15): grants grow from Lease toward this
	// cap while a name's redefinition rate stays low, and reset to the
	// floor when it churns.
	AutoTuneMax time.Duration
	// Trace installs a domain tracer on the kernel and network. Tracing
	// charges zero virtual time, so traced runs measure identically.
	Trace bool
	// TraceSample, when non-nil, installs the tracer in sampled mode
	// (PROTOCOL.md §15). Implies Trace.
	TraceSample *trace.SampleConfig
}

// SharedPrefixWorkload is the booted topology.
type SharedPrefixWorkload struct {
	Kernel     *kernel.Kernel
	Net        *netsim.Network
	PrefixHost *kernel.Host
	Prefix     *prefix.Server
	// Tier is the shared intermediate cache (nil unless CacheTier).
	Tier *ncache.Tier
	// Tracer is the installed tracer (nil unless Trace).
	Tracer *trace.Tracer
	// Flight is the workload's always-on flight recorder (PROTOCOL.md
	// §15); seal it at fences with SealFlightAtFences.
	Flight  *flight.Recorder
	Hosts   []*kernel.Host
	Shards  []*fileserver.FileServer
	Clients []*WorkloadClient
}

// NewSharedPrefixWorkload boots the topology: one prefix host, Shards
// file-server hosts with ClientsPerShard co-resident clients each, every
// shard's root bound to the context prefix [shard<i>] on the central
// prefix server, and every client running the invalidate-and-retry name
// cache. Clients carry Lane = shard index and a classifier that proves
// cache-hit queries lane-confined via the host shard labels.
func NewSharedPrefixWorkload(cfg SharedPrefixConfig) (*SharedPrefixWorkload, error) {
	if cfg.Shards <= 0 || cfg.ClientsPerShard <= 0 || cfg.Requests <= 0 {
		return nil, fmt.Errorf("shared-prefix workload: shards, clients and requests must be positive")
	}
	net := netsim.New(vtime.DefaultModel(), cfg.Seed)
	k := kernel.New(net)
	sw := &SharedPrefixWorkload{Kernel: k, Net: net}
	sw.Flight = flight.New(1 << 14)
	k.SetFlight(sw.Flight)
	if cfg.TraceSample != nil {
		sw.Tracer = trace.NewSampled(*cfg.TraceSample)
		k.SetTracer(sw.Tracer)
		net.SetRecorder(sw.Tracer)
	} else if cfg.Trace {
		sw.Tracer = trace.New()
		k.SetTracer(sw.Tracer)
		net.SetRecorder(sw.Tracer)
	}

	sw.PrefixHost = k.NewHost("nexus")
	var popts []prefix.Option
	if cfg.Lease > 0 && cfg.AutoTuneMax > 0 {
		popts = append(popts, prefix.WithLeaseAutoTune(cfg.Lease, cfg.AutoTuneMax))
	} else if cfg.Lease > 0 {
		popts = append(popts, prefix.WithLease(cfg.Lease))
	}
	ps, err := prefix.Start(sw.PrefixHost, "bench", popts...)
	if err != nil {
		return nil, fmt.Errorf("prefix server: %w", err)
	}
	sw.Prefix = ps

	// Clients address the resolver: the prefix server itself, or — with
	// the cache tier interposed — the co-resident ncache front, which
	// forwards everything it cannot answer from its own leases.
	resolver := ps.PID()
	if cfg.CacheTier {
		if cfg.Lease <= 0 {
			return nil, fmt.Errorf("shared-prefix workload: CacheTier requires Lease")
		}
		tier, err := ncache.Start(sw.PrefixHost, "ncache", ps.PID(), cfg.Lease)
		if err != nil {
			return nil, fmt.Errorf("cache tier: %w", err)
		}
		sw.Tier = tier
		resolver = tier.PID()
	}

	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	for s := 0; s < cfg.Shards; s++ {
		host := k.NewHost(fmt.Sprintf("shard%d", s))
		host.SetShard(s)
		opts := []fileserver.Option{}
		if cfg.Team > 1 {
			opts = append(opts, fileserver.WithTeam(cfg.Team))
		}
		fs, err := fileserver.Start(host, fmt.Sprintf("fs%d", s), opts...)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if _, err := fs.MkdirAll("/deep/a/b/c/d/e/f", "bench"); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if err := fs.WriteFile("/"+ShardHotPath, "bench", payload); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		if err := ps.Define(fmt.Sprintf("shard%d", s), fs.RootPair()); err != nil {
			return nil, fmt.Errorf("shard %d prefix: %w", s, err)
		}
		sw.Hosts = append(sw.Hosts, host)
		sw.Shards = append(sw.Shards, fs)

		name := fmt.Sprintf("[shard%d]%s", s, ShardHotPath)
		for c := 0; c < cfg.ClientsPerShard; c++ {
			proc, err := host.NewProcess(fmt.Sprintf("bench%d-%d", s, c))
			if err != nil {
				return nil, fmt.Errorf("shard %d client %d: %w", s, c, err)
			}
			sess := client.New(proc, resolver, fs.RootPair(), "bench")
			sess.EnableNameCache(true)
			flush := cfg.FlushEvery
			if cfg.Lease > 0 {
				if err := sess.EnableLeaseCache(); err != nil {
					return nil, fmt.Errorf("shard %d client %d lease cache: %w", s, c, err)
				}
				// Lease coherence retires the blind flush: expiry and
				// callbacks bound staleness instead (PROTOCOL.md §13).
				flush = 0
			}
			wc := &WorkloadClient{
				Session:  sess,
				Requests: cfg.Requests,
				Lane:     s,
				Op: func(s *client.Session, iter int) error {
					if flush > 0 && iter > 0 && iter%flush == 0 {
						s.FlushNameCache()
					}
					_, err := s.Query(name)
					return err
				},
				Classify: confinedOnCachedLocalRoute(k, host, name, flush),
			}
			if cfg.Lease > 0 {
				wc.Classify = confinedOnLeasedLocalRoute(k, host, wc, func(int) string { return name })
			}
			sw.Clients = append(sw.Clients, wc)
		}
	}
	return sw, nil
}

// confinedOnCachedLocalRoute classifies a client's next query of `name`:
// Confined exactly when the name cache will route it to a server whose
// host carries the same shard label as the client's own host (a local
// hop touching no cross-lane substrate), Shared otherwise — including
// every iteration that will first flush its cache and therefore walk the
// prefix server. The shard-label proof keeps the classifier honest if
// the topology is ever rewired: an unlabeled or foreign host never
// classifies as confined.
// confinedOnLeasedLocalRoute is the lease-cache analogue of
// confinedOnCachedLocalRoute for client wc, whose iteration iter
// queries name(iter): Confined exactly when the client holds a positive
// lease on that name's prefix that will still be valid when the
// operation runs, routing to a co-shard server. The operation runs after
// the driver charges wc.Think, so the probe time is the client's clock
// at classification plus its think time — the instant the session
// re-checks validity on entry (client.LeasedRoute) — while the engine
// key stays the pre-think clock. A lease that lapses inside the think
// window, or an absent one, classifies Shared: the revalidation walks
// the shared wire to the resolver.
func confinedOnLeasedLocalRoute(k *kernel.Kernel, clientHost *kernel.Host, wc *WorkloadClient, name func(iter int) string) func(*client.Session, int) engine.Class {
	return func(s *client.Session, iter int) engine.Class {
		pair, ok := s.LeasedRoute(name(iter), s.Proc().Now()+wc.Think)
		if !ok {
			return engine.Shared
		}
		h := k.HostOf(pair.Server)
		if h == nil || h.Shard() < 0 || h.Shard() != clientHost.Shard() {
			return engine.Shared
		}
		return engine.Confined
	}
}

func confinedOnCachedLocalRoute(k *kernel.Kernel, clientHost *kernel.Host, name string, flushEvery int) func(*client.Session, int) engine.Class {
	return func(s *client.Session, iter int) engine.Class {
		if flushEvery > 0 && iter > 0 && iter%flushEvery == 0 {
			return engine.Shared // this iteration flushes, then re-resolves
		}
		pair, ok := s.CachedRoute(name)
		if !ok {
			return engine.Shared
		}
		h := k.HostOf(pair.Server)
		if h == nil || h.Shard() < 0 || h.Shard() != clientHost.Shard() {
			return engine.Shared
		}
		return engine.Confined
	}
}
