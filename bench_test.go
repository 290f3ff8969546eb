// Package repro's top-level benchmarks: one testing.B benchmark per table
// and figure in the paper's evaluation, measuring the real (wall-clock)
// cost of the reproduced code paths. The paper's *virtual-time* numbers —
// the ones compared against the published values — are produced by
// cmd/vbench (internal/experiments); these benchmarks establish that the
// implementation itself is efficient and allocation-sane.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fileserver"
	"repro/internal/kernel"
	"repro/internal/nameserver"
	"repro/internal/proto"
	"repro/internal/rig"
)

// benchRig boots a standard rig for benchmarks.
func benchRig(b *testing.B, cfg rig.Config) *rig.Rig {
	b.Helper()
	r, err := rig.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

func startEcho(b *testing.B, h *kernel.Host) *kernel.Process {
	b.Helper()
	p, err := h.Spawn("echo", func(p *kernel.Process) {
		var reply proto.Message
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			reply = *msg
			reply.Op = proto.ReplyOK
			if err := p.Reply(&reply, from); err != nil {
				return
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkE1MessageTransaction measures the Figure 1 Send-Receive-Reply
// primitive (§3.1), same-host and cross-host. It is the repository's one
// in-tree E1 timing: both endpoints reuse a preallocated message, so the
// loop times the transaction alone and reports 0 allocs/op, the figure
// perfbench publishes as kernel.send_allocs.
func BenchmarkE1MessageTransaction(b *testing.B) {
	for _, remote := range []bool{false, true} {
		name := "local"
		if remote {
			name = "remote"
		}
		b.Run(name, func(b *testing.B) {
			r := benchRig(b, rig.DefaultConfig())
			host := r.WS[0].Host
			echoHost := host
			if remote {
				echoHost = r.FS1Host
			}
			echo := startEcho(b, echoHost)
			client, err := host.NewProcess("bench-client")
			if err != nil {
				b.Fatal(err)
			}
			req := &proto.Message{Op: proto.OpEcho}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Send(req, echo.PID()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2ProgramLoad measures the §3.1 64 KB MoveTo program load.
func BenchmarkE2ProgramLoad(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	s := r.WS[0].Session
	buf := make([]byte, 64*1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LoadProgram("[bin]editor", buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3SequentialRead measures the §3.1 page-by-page streaming read.
func BenchmarkE3SequentialRead(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	const pages = 16
	payload := make([]byte, pages*512)
	if err := r.FS1.WriteFile("/users/mann/bench.dat", "mann", payload); err != nil {
		b.Fatal(err)
	}
	s := r.WS[0].Session
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := s.Open("[home]bench.dat", proto.ModeRead)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.ReadAll(); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1Open measures the §6 Open table: the four quadrants of
// {current context, via prefix} x {server local, server remote}.
func BenchmarkT1Open(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	ws := r.WS[0]
	s := ws.Session
	localFS, err := fileserver.Start(ws.Host, "local")
	if err != nil {
		b.Fatal(err)
	}
	if err := localFS.WriteFile("/f.txt", ws.User, []byte("x")); err != nil {
		b.Fatal(err)
	}
	if err := ws.Prefix.Define("local", localFS.RootPair()); err != nil {
		b.Fatal(err)
	}
	localCtx, err := s.MapContext("[local]")
	if err != nil {
		b.Fatal(err)
	}

	cases := []struct {
		name    string
		csname  string
		current core.ContextPair
	}{
		{"current_local", "f.txt", localCtx},
		{"current_remote", "welcome.txt", ws.HomeCtx},
		{"prefix_local", "[local]f.txt", core.ContextPair{}},
		{"prefix_remote", "[home]welcome.txt", core.ContextPair{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if c.current != (core.ContextPair{}) {
				s.SetCurrent(c.current)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := s.Open(c.csname, proto.ModeRead)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF2PID measures the Figure 2 pid subfield operations.
func BenchmarkF2PID(b *testing.B) {
	b.ReportAllocs()
	var sink kernel.PID
	for i := 0; i < b.N; i++ {
		p := kernel.MakePID(3, uint16(i))
		if p.Host() == 3 && !p.IsGroup() {
			sink = p
		}
	}
	_ = sink
}

// BenchmarkF3Descriptor measures the Figure 3 typed description record
// encode/decode round trip.
func BenchmarkF3Descriptor(b *testing.B) {
	d := proto.Descriptor{
		Tag: proto.TagFile, ObjectID: 42, Size: 4096, Modified: 123456789,
		Perms: proto.PermRead | proto.PermWrite, Name: "naming.mss", Owner: "cheriton",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := d.AppendEncoded(nil)
		if _, _, err := proto.DecodeDescriptor(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF4ForestTraversal measures the Figure 4 cross-server name
// resolution: one request forwarded mid-interpretation from FS1 to FS2.
func BenchmarkF4ForestTraversal(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	s := r.WS[0].Session
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query("[storage]/shared/archive/2026/paper.mss"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1Directory measures the §5.6 comparison: reading a context
// directory versus querying each object, at N=100.
func BenchmarkA1Directory(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	s := r.WS[0].Session
	const n = 100
	for i := 0; i < n; i++ {
		if err := r.FS1.WriteFile(fmt.Sprintf("/users/mann/d/f%03d", i), "mann", []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("directory_read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			records, err := s.List("[home]d")
			if err != nil || len(records) != n {
				b.Fatalf("%d records, %v", len(records), err)
			}
		}
	})
	b.Run("enumerate_query", func(b *testing.B) {
		records, err := s.List("[home]d")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range records {
				if _, err := s.Query("[home]d/" + d.Name); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkA2Models measures the §2.2 efficiency comparison: V-model open
// versus centralized lookup-then-open.
func BenchmarkA2Models(b *testing.B) {
	cfg := rig.DefaultConfig()
	cfg.Baseline = true
	r := benchRig(b, cfg)
	s := r.WS[0].Session
	d, err := s.Query("[home]welcome.txt")
	if err != nil {
		b.Fatal(err)
	}
	nsProc, err := r.WS[0].Host.NewProcess("baseline-bench")
	if err != nil {
		b.Fatal(err)
	}
	nc := nameserver.NewClient(nsProc, r.NS.PID())
	const gname = "fs1:/users/mann/welcome.txt"
	if err := nc.Register(gname, r.FS1.PID(), d.ObjectID); err != nil {
		b.Fatal(err)
	}

	b.Run("distributed", func(b *testing.B) {
		s.SetCurrent(r.WS[0].HomeCtx)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := s.Open("welcome.txt", proto.ModeRead)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("centralized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			info, server, err := nc.Open(gname, proto.ModeRead)
			if err != nil {
				b.Fatal(err)
			}
			rel := &proto.Message{Op: proto.OpReleaseInstance}
			rel.F[0] = uint32(info.ID)
			if _, err := nsProc.Send(rel, server); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA6Multicast measures the §7 group-send name mapping against the
// prefix-server path.
func BenchmarkA6Multicast(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	s := r.WS[0].Session
	if err := r.FS2.SetWellKnown(core.CtxStdPrograms, "/bin"); err != nil {
		b.Fatal(err)
	}
	if err := r.FS2.WriteFile("/bin/hello", "system", []byte("replica")); err != nil {
		b.Fatal(err)
	}
	gid := r.Kernel.CreateGroup()
	if err := r.Kernel.JoinGroup(gid, r.FS1.PID()); err != nil {
		b.Fatal(err)
	}
	if err := r.Kernel.JoinGroup(gid, r.FS2.PID()); err != nil {
		b.Fatal(err)
	}
	proc := s.Proc()

	b.Run("via_prefix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query("[bin]hello"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("via_group", func(b *testing.B) {
		// Query, not open: a non-idempotent request multicast to a group
		// leaves orphaned state (an open instance) at every member that
		// loses the first-reply race — the practical caveat of §7-style
		// group contexts, demonstrated by TestGroupOpenLeaksAtLosers.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := &proto.Message{Op: proto.OpQueryObject}
			proto.SetCSName(req, uint32(core.CtxStdPrograms), "hello")
			reply, err := proc.Send(req, gid)
			if err != nil {
				b.Fatal(err)
			}
			if err := proto.ReplyError(reply.Op); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE5PrefixTable measures prefix definition and use — the
// operations behind the §6 space/speed observations.
func BenchmarkE5PrefixTable(b *testing.B) {
	r := benchRig(b, rig.DefaultConfig())
	ws := r.WS[0]
	b.Run("define", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Unique across benchmark reruns (b.N grows in rounds).
			defineSeq++
			if err := ws.Prefix.Define(fmt.Sprintf("p%08d", defineSeq), r.FS1.RootPair()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("use", func(b *testing.B) {
		s := ws.Session
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := s.Open("[home]welcome.txt", proto.ModeRead)
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// defineSeq keeps prefix names unique across benchmark rounds.
var defineSeq int

// benchShardedWorkload drives the sharded closed-loop workload once per
// iteration on a fresh topology (setup excluded from the timer) with
// the given driver and reports wall-clock requests per second.
func benchShardedWorkload(b *testing.B, run func([]*rig.WorkloadClient) *rig.WorkloadResult) {
	cfg := rig.ShardConfig{Shards: 8, ClientsPerShard: 8, Requests: 25, Team: 1, Seed: 42}
	total := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sw, err := rig.NewShardedWorkload(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := run(sw.Clients)
		b.StopTimer()
		total += res.Requests
		// Tear down the topology's server goroutines between iterations.
		for _, h := range sw.Hosts {
			h.Crash()
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkWorkloadSequential is the single-threaded reference driver.
func BenchmarkWorkloadSequential(b *testing.B) { benchShardedWorkload(b, rig.RunWorkload) }

// BenchmarkWorkloadEngine measures the conservative-engine driver over
// the same workload. Its virtual-time results are identical to the
// sequential driver's (see TestParallelDriverEquivalence); only
// wall-clock time changes. The engine runs one goroutine per lane, so
// real parallelism is set by GOMAXPROCS: compare settings with
// `go test -bench WorkloadEngine -cpu 1,2`.
func BenchmarkWorkloadEngine(b *testing.B) {
	benchShardedWorkload(b, func(clients []*rig.WorkloadClient) *rig.WorkloadResult {
		return rig.RunWorkloadEngine(clients, rig.EngineOptions{})
	})
}
