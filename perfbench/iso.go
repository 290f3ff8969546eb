package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fileserver"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/nametree"
	"repro/internal/netsim"
	"repro/internal/popgen"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/rig"
	"repro/internal/vtime"
)

// isolated holds the per-layer costs measured by calling each module's
// public API directly, replaying the workload's own inputs: its names,
// population, Zipf draws and cost model.
type isolated struct {
	leaseProbeNs    float64
	csnameNs        float64
	csnameAllocs    float64
	descriptorNs    float64
	descAllocs      float64
	sendLocalNs     float64
	sendRemoteNs    float64
	sendAllocs      float64
	unicastNs       float64
	gateNs          float64
	longestPrefixNs float64
	getNs           float64
	insertDeleteNs  float64
	lookupAllocs    float64
	interpretNs     float64
	describeNs      float64
	recordNs        float64
	// Measured on a workload without redefinitions of its own: an
	// admin redefinition of one of its names after the run.
	redefineNs      float64
	holdersNotified float64
	populationS     float64
}

// isoCalls is the number of calls each isolated figure is taken over.
const isoCalls = 20000

// nsPerCall times fn over n calls in 5 batches and returns the median
// batch's ns per call.
func nsPerCall(n int, fn func(i int)) float64 {
	const batches = 5
	per := n / batches
	var xs []float64
	for b := 0; b < batches; b++ {
		t := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/float64(per))
	}
	return median(xs)
}

// miniDomain is a benchmark-owned two-host domain on the workload's cost
// model, with an echo server on each host and a client on the first.
type miniDomain struct {
	net          *netsim.Network
	a, b         *kernel.Host
	cl           *kernel.Process
	echoA, echoB kernel.PID
}

func newMiniDomain(seed int64) (*miniDomain, error) {
	net := netsim.New(vtime.DefaultModel(), seed)
	k := kernel.New(net)
	d := &miniDomain{net: net, a: k.NewHost("iso-a"), b: k.NewHost("iso-b")}
	echo := func(p *kernel.Process) {
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
	}
	ea, err := d.a.Spawn("echo", echo)
	if err != nil {
		return nil, err
	}
	eb, err := d.b.Spawn("echo", echo)
	if err != nil {
		return nil, err
	}
	d.echoA, d.echoB = ea.PID(), eb.PID()
	if d.cl, err = d.a.NewProcess("iso-client"); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *miniDomain) close() {
	d.a.Crash()
	d.b.Crash()
}

// measureIsolated runs every isolated measurement against the inputs of
// the booted, already-run instance in.
func measureIsolated(sp spec, in *instance, rd *round, seed int64) (*isolated, error) {
	iso := &isolated{}
	var flat []string
	for _, row := range in.draws {
		flat = append(flat, row...)
	}
	pfxs := make([]string, len(flat))
	for i, name := range flat {
		pfx, _, err := prefix.Parse(name, 0)
		if err != nil {
			return nil, fmt.Errorf("draw %q: %w", name, err)
		}
		pfxs[i] = pfx
	}
	pick := func(i int) int { return i % len(flat) }

	// client: the lease-cache probe every operation starts with.
	sess := in.sessions()
	iso.leaseProbeNs = nsPerCall(isoCalls, func(i int) {
		c := i % len(sess)
		row := in.draws[c]
		sess[c].LeasedRoute(row[i%len(row)], sess[c].Proc().Now())
	})

	// proto: CSName request encode/decode and descriptor round trips.
	var msg proto.Message
	csname := func(i int) {
		proto.SetCSName(&msg, 0, flat[pick(i)])
		if _, _, err := proto.CSName(&msg); err != nil {
			panic(err)
		}
	}
	iso.csnameNs = nsPerCall(isoCalls, csname)
	iso.csnameAllocs = testing.AllocsPerRun(200, func() { csname(7) })
	desc := proto.Descriptor{Tag: proto.TagContextPrefix, Name: pfxs[0], Owner: "pop"}
	if sp.population == 0 {
		d, err := in.shards[0].Describe("/" + rig.ShardHotPath)
		if err != nil {
			return nil, err
		}
		desc = d
	}
	buf := make([]byte, 0, 256)
	descRound := func(int) {
		buf = desc.AppendEncoded(buf[:0])
		if _, _, err := proto.DecodeDescriptor(buf); err != nil {
			panic(err)
		}
	}
	iso.descriptorNs = nsPerCall(isoCalls, descRound)
	iso.descAllocs = testing.AllocsPerRun(200, func() { descRound(0) })

	// kernel and netsim: the E1 transaction with a preallocated request.
	md, err := newMiniDomain(seed)
	if err != nil {
		return nil, err
	}
	defer md.close()
	req := &proto.Message{Op: proto.OpEcho}
	send := func(dst kernel.PID) func(int) {
		return func(int) {
			if _, err := md.cl.Send(req, dst); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < 64; i++ { // warm the envelope pool
		send(md.echoA)(i)
		send(md.echoB)(i)
	}
	iso.sendLocalNs = nsPerCall(isoCalls, send(md.echoA))
	iso.sendRemoteNs = nsPerCall(isoCalls, send(md.echoB))
	sendA := send(md.echoA)
	iso.sendAllocs = testing.AllocsPerRun(200, func() { sendA(0) })
	frame := 64
	if rd.net.Packets > 0 {
		frame = int(rd.net.Bytes / rd.net.Packets)
	}
	at := md.cl.Now()
	iso.unicastNs = nsPerCall(isoCalls, func(i int) {
		at += time.Millisecond
		if _, err := md.net.Unicast(md.a.ID(), md.b.ID(), frame, at); err != nil {
			panic(err)
		}
	})

	// engine: one lane's Gate/Done bookkeeping, uncontended.
	iso.gateNs = nsPerCall(isoCalls, func() func(int) {
		es := engine.NewSync(1, time.Millisecond, engine.Fences{})
		return func(i int) {
			es.Gate(0, engine.Key{T: time.Duration(i)}, engine.Confined)
			if i == isoCalls-1 {
				es.Done(0)
			}
		}
	}())

	// nametree: the prefix server's index over the workload's table,
	// queried with the workload's draws.
	table := []string{}
	for s := 0; s < shards; s++ {
		table = append(table, fmt.Sprintf("shard%d", s))
	}
	if in.pop != nil {
		table = in.pop.Names
	}
	tree := nametree.New[int]()
	for i, name := range table {
		tree.Insert(name, i)
	}
	iso.longestPrefixNs = nsPerCall(isoCalls, func(i int) { tree.LongestPrefix(pfxs[pick(i)]) })
	iso.getNs = nsPerCall(isoCalls, func(i int) { tree.Get(pfxs[pick(i)]) })
	iso.lookupAllocs = testing.AllocsPerRun(200, func() { tree.Get(pfxs[0]) })
	hot := table[:min(len(table), churnHot)]
	iso.insertDeleteNs = nsPerCall(isoCalls, func(i int) {
		name := hot[i%len(hot)]
		tree.Delete(name)
		tree.Insert(name, i)
	})

	// core and fileserver: interpretation of the path the workload's
	// file server sees — the 8-component deep path, or the root context
	// a zipf MapContext names.
	path := ""
	if sp.population == 0 {
		path = rig.ShardHotPath
	}
	store, err := deepStore()
	if err != nil {
		return nil, err
	}
	iso.interpretNs = nsPerCall(isoCalls, func(int) {
		if _, _, err := core.Interpret(store, md.cl, path, 0, core.CtxDefault); err != nil {
			panic(err)
		}
	})
	fs, err := fileserver.Start(md.b, "iso-fs")
	if err != nil {
		return nil, err
	}
	if _, err := fs.MkdirAll("/deep/a/b/c/d/e/f", "bench"); err != nil {
		return nil, err
	}
	if err := fs.WriteFile("/"+rig.ShardHotPath, "bench", make([]byte, 512)); err != nil {
		return nil, err
	}
	iso.describeNs = nsPerCall(isoCalls, func(int) {
		if _, err := fs.Describe("/" + path); err != nil {
			panic(err)
		}
	})

	// flight: one naming event into a ring of the workload's size.
	rec := flight.New(1 << 14)
	iso.recordNs = nsPerCall(isoCalls, func(i int) {
		rec.Record(time.Duration(i), flight.KindResolution, pfxs[pick(i)], "bench", "")
	})

	if len(rd.redefs) == 0 {
		if err := isolatedRedefine(iso, in, table); err != nil {
			return nil, err
		}
	}
	if in.pop == nil {
		// deep-query's table is its shard prefixes, not a popgen
		// population: time generating a population of that size.
		t := time.Now()
		popgen.NewPopulation(len(table), 0.99, uint64(seed))
		iso.populationS = time.Since(t).Seconds()
	}
	return iso, nil
}

// isolatedRedefine times admin redefinitions (DeleteName+AddName over
// IPC, rebinding to the same shard) of the hottest names of a workload
// that has none of its own.
func isolatedRedefine(iso *isolated, in *instance, table []string) error {
	proc, err := in.hosts[0].NewProcess("iso-admin")
	if err != nil {
		return err
	}
	adm := client.New(proc, in.prefix.PID(), in.shards[0].RootPair(), "admin")
	const n = 50
	before := in.prefix.LeaseStats().HoldersNotified
	var ns []float64
	for i := 0; i < n; i++ {
		rank := i % min(len(table), churnHot)
		pair := in.shards[rank%len(in.shards)].RootPair()
		t := time.Now()
		if err := adm.DeleteName(table[rank]); err != nil {
			return err
		}
		if err := adm.AddName(table[rank], pair); err != nil {
			return err
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds()))
	}
	iso.redefineNs = median(ns)
	iso.holdersNotified = float64(in.prefix.LeaseStats().HoldersNotified-before) / n
	return nil
}

// deepStore is a benchmark-owned context store holding the deep-query
// path: seven nested contexts and the final object.
func deepStore() (*core.MapStore, error) {
	store := core.NewMapStore()
	parent := core.CtxDefault
	parts := strings.Split(rig.ShardHotPath, "/")
	for i, comp := range parts[:len(parts)-1] {
		ctx := core.ContextID(i + 1)
		store.AddContext(ctx)
		if err := store.Bind(parent, comp, core.ContextEntry(ctx)); err != nil {
			return nil, err
		}
		parent = ctx
	}
	return store, store.Bind(parent, parts[len(parts)-1], core.ObjectEntry(proto.TagFile, 1))
}
