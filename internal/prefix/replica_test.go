package prefix

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/replica"
	"repro/internal/vtime"
)

// startReplicatedPrefix boots an n-member prefix replication group (each
// member a New-built server whose serving process is its replica front)
// plus a client process.
func startReplicatedPrefix(t *testing.T, n int) (*replica.Group, []*Server, []*replica.Replica, *kernel.Process) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	g, err := replica.NewGroup(k.NewHost("mon"), replica.Config{Name: "prefix", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srvs := make([]*Server, n)
	reps := make([]*replica.Replica, n)
	for i := 0; i < n; i++ {
		host := k.NewHost(string(rune('a' + i)))
		rep, err := replica.Start(host, "front", func(p *kernel.Process) replica.Service {
			srv := New(p, "mann")
			srvs[i] = srv
			return NewReplicaService(srv)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(host.Name(), rep); err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if err := g.Bootstrap(0); err != nil {
		t.Fatal(err)
	}
	client, err := k.NewHost("ws").NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	return g, srvs, reps, client
}

// TestReplicatedPrefixTable drives the replicated prefix front: table
// mutations commit on every member, reads are served member-locally,
// and followers redirect mutations with a leader hint.
func TestReplicatedPrefixTable(t *testing.T) {
	_, srvs, reps, client := startReplicatedPrefix(t, 3)

	// A bracket-less add through the leader front defines the prefix on
	// every member's table.
	add := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(add, 0, "storage")
	proto.SetAddContextTarget(add, 42, 7)
	rep, err := client.Send(add, reps[0].PID())
	if err != nil || rep.Op != proto.ReplyOK {
		t.Fatalf("add reply = %v, %v", rep, err)
	}
	dyn := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(dyn, 0, "bin")
	proto.SetAddContextDynamicTarget(dyn, uint32(kernel.ServiceStorage), uint32(core.CtxStdPrograms))
	if rep, err = client.Send(dyn, reps[0].PID()); err != nil || rep.Op != proto.ReplyOK {
		t.Fatalf("dynamic add reply = %v, %v", rep, err)
	}
	want := map[string]Binding{
		"storage": {Pair: core.ContextPair{Server: 42, Ctx: 7}},
		"bin":     {Dynamic: true, Service: kernel.ServiceStorage, WellKnown: core.CtxStdPrograms},
	}
	for i, s := range srvs {
		if got := s.Bindings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("member %d table = %+v, want %+v", i, got, want)
		}
	}

	// A table mutation sent to a follower is refused with a leader hint —
	// tiny tables make redirect cheaper than forwarding here.
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, "storage")
	rep, err = client.Send(del, reps[1].PID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Op != proto.ReplyNotLeader {
		t.Fatalf("follower mutation reply = %v, want NotLeader", rep.Op)
	}
	if hint := proto.LeaderHint(rep); hint != uint32(reps[0].PID()) {
		t.Fatalf("leader hint = %d, want %d", hint, reps[0].PID())
	}

	// Redirected to the leader, the delete commits everywhere.
	if rep, err = client.Send(del, reps[0].PID()); err != nil || rep.Op != proto.ReplyOK {
		t.Fatalf("leader delete reply = %v, %v", rep, err)
	}
	for i, s := range srvs {
		if _, ok := s.Bindings()["storage"]; ok {
			t.Fatalf("member %d still holds the deleted prefix", i)
		}
	}

	// Non-mutating requests are served by any member's local table.
	q := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(q, 0, "[bin")
	rep, err = client.Send(q, reps[2].PID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Op == proto.ReplyNotLeader {
		t.Fatalf("follower redirected a read")
	}
}

// TestPrefixSnapshotRoundTrip pins the table codec: snapshot and
// restore reproduce static and dynamic bindings exactly, and corrupt
// images — truncated, padded, or claiming more entries than they
// hold — are rejected whole.
func TestPrefixSnapshotRoundTrip(t *testing.T) {
	_, srvs, _, _ := startReplicatedPrefix(t, 2)
	src := NewReplicaService(srvs[0])
	if err := srvs[0].Define("storage", core.ContextPair{Server: 42, Ctx: 7}); err != nil {
		t.Fatal(err)
	}
	if err := srvs[0].DefineDynamic("bin", kernel.ServiceStorage, core.CtxStdPrograms); err != nil {
		t.Fatal(err)
	}
	img := src.Snapshot()

	dst := NewReplicaService(srvs[1])
	if err := srvs[1].Define("stale", core.ContextPair{Server: 9, Ctx: 9}); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(nil, img); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srvs[1].Bindings(), srvs[0].Bindings()) {
		t.Fatalf("restored table %+v != source %+v", srvs[1].Bindings(), srvs[0].Bindings())
	}
	if !bytes.Equal(dst.Snapshot(), img) {
		t.Fatalf("restored table re-encodes differently")
	}
	for _, cut := range []int{1, len(img) - 1} {
		if err := dst.Restore(nil, img[:cut]); err == nil {
			t.Fatalf("Restore accepted a %d-byte truncation", cut)
		}
	}
	if err := dst.Restore(nil, append(append([]byte(nil), img...), 0)); err == nil {
		t.Fatalf("Restore accepted trailing garbage")
	}
	// An entry count no image could hold is refused, not allocated for.
	if err := dst.Restore(nil, binary.AppendUvarint(nil, 1<<62)); err == nil {
		t.Fatalf("Restore accepted an impossible entry count")
	}
}

// encodeTable writes entries in the snapshot codec, in the order given
// — including orders Snapshot never writes.
func encodeTable(names []string, binds []Binding) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(names)))
	for i, n := range names {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
		b := binds[i]
		if b.Dynamic {
			buf = binary.AppendUvarint(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(b.Service))
			buf = binary.AppendUvarint(buf, uint64(b.WellKnown))
		} else {
			buf = binary.AppendUvarint(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(b.Pair.Server))
			buf = binary.AppendUvarint(buf, uint64(b.Pair.Ctx))
		}
	}
	return buf
}

// TestRestoreNeverHidesSharedName: a table install is one publish, so a
// lock-free reader resolving a name that both the old and the installed
// table bind never finds it missing — a miss would be answered
// NotFound with a negative lease. The shared name sorts last, so an
// install that deleted the old table before inserting the new one
// would hide it for the whole insert phase. Run under -race.
func TestRestoreNeverHidesSharedName(t *testing.T) {
	const shared = "zz.shared"
	table := func(tag string) ([]string, []Binding) {
		names := []string{shared}
		binds := []Binding{{Pair: core.ContextPair{Server: 3, Ctx: 3}}}
		for i := 0; i < 10_000; i++ {
			names = append(names, fmt.Sprintf("%s.n%d", tag, i))
			binds = append(binds, Binding{Pair: core.ContextPair{Server: 3, Ctx: core.ContextID(i)}})
		}
		return names, binds
	}
	dst, src := newBareServer(t), newBareServer(t)
	if err := dst.DefineAll(table("old")); err != nil {
		t.Fatal(err)
	}
	if err := src.DefineAll(table("new")); err != nil {
		t.Fatal(err)
	}
	img := NewReplicaService(src).Snapshot()

	var misses, reads atomic.Int64
	started, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := dst.index.Get(shared); !ok {
				misses.Add(1)
			}
			if reads.Add(1) == 1 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	err := NewReplicaService(dst).Restore(nil, img)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if n := misses.Load(); n > 0 {
		t.Fatalf("a reader missed %q %d times in %d reads during the install", shared, n, reads.Load())
	}
	if !reflect.DeepEqual(dst.Bindings(), src.Bindings()) {
		t.Fatal("installed table differs from the snapshot source")
	}
}

// TestRestoreRefusesDuplicateName: a snapshot binding one name twice is
// not one Snapshot writes, and installing it would leave the inverse
// index naming a binding the table no longer holds. It is refused as
// corrupt with the table and the inverse answers unchanged; so is a
// snapshot out of name order.
func TestRestoreRefusesDuplicateName(t *testing.T) {
	a, b := core.ContextPair{Server: 4, Ctx: 1}, core.ContextPair{Server: 4, Ctx: 2}
	p1, p2 := core.ContextPair{Server: 8, Ctx: 1}, core.ContextPair{Server: 8, Ctx: 2}
	s := newBareServer(t)
	if err := s.DefineAll([]string{"a", "b"}, []Binding{{Pair: a}, {Pair: b}}); err != nil {
		t.Fatal(err)
	}
	before := s.Bindings()
	inverse := func() []string {
		var out []string
		for _, p := range []core.ContextPair{a, b, p1, p2} {
			out = append(out, inverseOf(s, p))
		}
		return out
	}
	wantInverse := inverse()
	for _, c := range []struct {
		what  string
		names []string
	}{
		{"duplicate", []string{"x", "x"}},
		{"unsorted", []string{"y", "x"}},
	} {
		img := encodeTable(c.names, []Binding{{Pair: p1}, {Pair: p2}})
		if err := NewReplicaService(s).Restore(nil, img); err == nil {
			t.Fatalf("%s: Restore accepted the snapshot", c.what)
		}
		if !reflect.DeepEqual(s.Bindings(), before) {
			t.Fatalf("%s: a refused snapshot changed the table", c.what)
		}
		if got := inverse(); !reflect.DeepEqual(got, wantInverse) {
			t.Fatalf("%s: inverse answers %q, want %q", c.what, got, wantInverse)
		}
	}
}
