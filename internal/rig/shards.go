// Sharded workload topology for the wall-clock performance benchmarks.
//
// The parallel driver's equivalence guarantee (see workload.go) requires
// lanes that share no execution-order-sensitive substrate state. This
// file builds exactly that shape: independent file-server shards, each on
// its own host with its clients co-resident, so every request is a local
// hop — it never touches the shared-wire ledger or the loss RNG — and no
// server process is shared between lanes.
package rig

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/vtime"
)

// ShardHotPath is the deep name the sharded workload queries: seven
// components of context lookup plus the final object, the same shape the
// A11 team experiment uses for its hot phase.
const ShardHotPath = "deep/a/b/c/d/e/f/hot.dat"

// ShardedWorkload is a self-contained multi-shard benchmark topology.
type ShardedWorkload struct {
	Kernel  *kernel.Kernel
	Net     *netsim.Network
	Hosts   []*kernel.Host
	Shards  []*fileserver.FileServer
	Clients []*WorkloadClient
}

// ShardConfig shapes a sharded workload.
type ShardConfig struct {
	// Shards is the number of independent file-server shards (= lanes).
	Shards int
	// ClientsPerShard is the number of co-resident clients per shard.
	ClientsPerShard int
	// Requests is each client's quota of Query iterations.
	Requests int
	// Team is each shard file server's team size (0/1 = single process).
	Team int
	// Seed drives the network's deterministic RNG.
	Seed int64
}

// NewShardedWorkload boots the sharded topology: Shards hosts, each
// running one file server seeded with the deep hot path, plus
// ClientsPerShard client processes on the same host whose Op queries
// ShardHotPath. Clients carry Lane = shard index, so RunWorkloadEngine
// runs one goroutine-lane per shard and RunWorkload reproduces the same
// result sequentially.
func NewShardedWorkload(cfg ShardConfig) (*ShardedWorkload, error) {
	if cfg.Shards <= 0 || cfg.ClientsPerShard <= 0 || cfg.Requests <= 0 {
		return nil, fmt.Errorf("sharded workload: shards, clients and requests must be positive")
	}
	net := netsim.New(vtime.DefaultModel(), cfg.Seed)
	k := kernel.New(net)
	sw := &ShardedWorkload{Kernel: k, Net: net}

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
		if err := fs.WriteFile("/deep/a/b/c/d/e/f/hot.dat", "bench", payload); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		sw.Hosts = append(sw.Hosts, host)
		sw.Shards = append(sw.Shards, fs)
		for c := 0; c < cfg.ClientsPerShard; c++ {
			proc, err := host.NewProcess(fmt.Sprintf("bench%d-%d", s, c))
			if err != nil {
				return nil, fmt.Errorf("shard %d client %d: %w", s, c, err)
			}
			sess := client.New(proc, kernel.NilPID, fs.RootPair(), "bench")
			sw.Clients = append(sw.Clients, &WorkloadClient{
				Session:  sess,
				Requests: cfg.Requests,
				Lane:     s,
				Op: func(s *client.Session, iter int) error {
					_, err := s.Query(ShardHotPath)
					return err
				},
				// Every request is a co-resident query of the lane's own
				// file server: a local hop that never touches the wire
				// ledger, the loss RNG, or another lane's servers.
				Classify: func(*client.Session, int) engine.Class { return engine.Confined },
			})
		}
	}
	return sw, nil
}
