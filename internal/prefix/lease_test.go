package prefix

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

// newLeaseRig boots a lease-enabled prefix server, a toy target server,
// a client process, and a callback process that acknowledges every
// OpCacheInvalidate it receives and records the invalidated names.
func newLeaseRig(t *testing.T) (*Server, *kernel.Process, *kernel.Process, chan string) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	ws := k.NewHost("ws")
	srvHost := k.NewHost("srv")

	target, err := srvHost.Spawn("target", func(p *kernel.Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			reply := proto.NewReply(proto.ReplyOK)
			reply.F[0] = msg.F[0]
			if err := p.Reply(reply, from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	invalidated := make(chan string, 16)
	callback, err := ws.Spawn("callback", func(p *kernel.Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			if name, _, err := proto.CacheInvalidate(msg); err == nil {
				invalidated <- name
			}
			if err := p.Reply(proto.NewReply(proto.ReplyOK), from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	ps, err := Start(ws, "mann", WithLease(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	client, err := ws.NewProcess("client")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ps.Proc().Destroy()
		target.Destroy()
		callback.Destroy()
		client.Destroy()
	})
	if err := ps.Define("tgt", core.ContextPair{Server: target.PID(), Ctx: 42}); err != nil {
		t.Fatal(err)
	}
	return ps, client, callback, invalidated
}

// leaseMap sends a bare-prefix MapContext with a lease request and
// returns the reply.
func leaseMap(t *testing.T, client *kernel.Process, ps *Server, cb kernel.PID, name string) *proto.Message {
	t.Helper()
	req := &proto.Message{Op: proto.OpMapContext}
	proto.SetCSName(req, 0, name)
	proto.SetLeaseRequest(req, uint32(cb))
	reply, err := client.Send(req, ps.PID())
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestLeaseGrantAndInvalidate walks the whole holder-group life cycle:
// the first grant creates the name's group in the holder registry and
// the second joins it, deletion runs the callback barrier at the
// holder, and the group outlives the binding, so the re-grant after a
// redefinition reuses it.
func TestLeaseGrantAndInvalidate(t *testing.T) {
	ps, client, callback, invalidated := newLeaseRig(t)

	reply := leaseMap(t, client, ps, callback.PID(), "[tgt]")
	if reply.Op != proto.ReplyOK {
		t.Fatalf("MapContext ret %v", reply.Op)
	}
	if _, ok := proto.LeaseGrant(reply); !ok {
		t.Fatal("reply not lease-stamped")
	}
	// Second grant: the holder group already exists, so the stamp only
	// joins it.
	leaseMap(t, client, ps, callback.PID(), "[tgt]")
	if st := ps.LeaseStats(); st.Grants != 2 {
		t.Fatalf("grants = %d, want 2", st.Grants)
	}

	// Deleting the binding must run the callback barrier before the
	// reply: the holder hears the invalidation, and the group stays in
	// the registry for the name's next life.
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, "tgt")
	if reply, err := client.Send(del, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("delete: op=%v err=%v", reply.Op, err)
	}
	select {
	case name := <-invalidated:
		if name != "tgt" {
			t.Fatalf("invalidated %q, want tgt", name)
		}
	default:
		t.Fatal("holder never heard the invalidation")
	}
	st := ps.LeaseStats()
	if st.Invalidations == 0 || st.HoldersNotified == 0 {
		t.Fatalf("lease stats after delete: %+v", st)
	}

	// Redefine and re-grant: the same group serves the name, so the
	// holder (still a member) hears the next invalidation too.
	add := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(add, 0, "tgt")
	proto.SetAddContextTarget(add, uint32(ps.PID()), 7)
	if reply, err := client.Send(add, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("add: op=%v err=%v", reply.Op, err)
	}
	leaseMap(t, client, ps, callback.PID(), "[tgt]")
	del2 := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del2, 0, "tgt")
	if _, err := client.Send(del2, ps.PID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-invalidated:
	default:
		t.Fatal("re-adopted group lost the holder")
	}
}

// TestNegativeLeaseOrphans pins the path of a name with no binding: a
// lease request for an undefined name is answered NotFound with a
// negative stamp, the holder group is registered although no binding
// exists, and defining the name fires the callback barrier at the
// negative holders through that same group.
func TestNegativeLeaseOrphans(t *testing.T) {
	ps, client, callback, invalidated := newLeaseRig(t)

	reply := leaseMap(t, client, ps, callback.PID(), "[ghost]")
	if reply.Op != proto.ReplyNotFound {
		t.Fatalf("undefined name ret %v", reply.Op)
	}
	if _, ok := proto.LeaseGrant(reply); !ok {
		t.Fatal("NotFound reply not negatively stamped")
	}
	// Second negative: the unbound name's group already exists.
	leaseMap(t, client, ps, callback.PID(), "[ghost]")
	if st := ps.LeaseStats(); st.Negatives != 2 {
		t.Fatalf("negatives = %d, want 2", st.Negatives)
	}

	add := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(add, 0, "ghost")
	proto.SetAddContextTarget(add, uint32(ps.PID()), 9)
	if reply, err := client.Send(add, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("define ghost: op=%v err=%v", reply.Op, err)
	}
	select {
	case name := <-invalidated:
		if name != "ghost" {
			t.Fatalf("invalidated %q, want ghost", name)
		}
	default:
		t.Fatal("negative holders never heard the definition")
	}

	// The same group serves the positive grant now.
	if reply := leaseMap(t, client, ps, callback.PID(), "[ghost]"); reply.Op != proto.ReplyOK {
		t.Fatalf("post-define MapContext ret %v", reply.Op)
	}
}

// TestInvalidateWithoutHolders covers the commit path for names nobody
// leased: the mutation commits, the invalidation counter ticks, and no
// callback is attempted.
func TestInvalidateWithoutHolders(t *testing.T) {
	ps, client, _, invalidated := newLeaseRig(t)
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, "tgt")
	if reply, err := client.Send(del, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("delete: op=%v err=%v", reply.Op, err)
	}
	if st := ps.LeaseStats(); st.Invalidations != 1 || st.HoldersNotified != 0 {
		t.Fatalf("lease stats: %+v", st)
	}
	select {
	case name := <-invalidated:
		t.Fatalf("unexpected callback for %q", name)
	default:
	}
}

// TestRestoreKeepsLeaseHolders: a holder granted a lease before a
// replica table install (ReplicaService.Restore) still hears the next
// define or delete of its name, whether the installed table binds the
// name or drops it. One holder has a positive lease on tgt, which the
// installed table no longer binds, and a negative lease on ghost, which
// the installed table binds.
func TestRestoreKeepsLeaseHolders(t *testing.T) {
	ps, client, callback, invalidated := newLeaseRig(t)
	if reply := leaseMap(t, client, ps, callback.PID(), "[tgt]"); reply.Op != proto.ReplyOK {
		t.Fatalf("lease on tgt ret %v", reply.Op)
	}
	if reply := leaseMap(t, client, ps, callback.PID(), "[ghost]"); reply.Op != proto.ReplyNotFound {
		t.Fatalf("negative lease on ghost ret %v", reply.Op)
	}

	proc, err := ps.Proc().Host().NewProcess("image-source")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)
	src := New(proc, "mann")
	if err := src.Define("ghost", core.ContextPair{Server: ps.PID(), Ctx: 9}); err != nil {
		t.Fatal(err)
	}
	if err := NewReplicaService(ps).Restore(nil, NewReplicaService(src).Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, bound := ps.Bindings()["tgt"]; bound {
		t.Fatal("installed table still binds tgt")
	}

	heard := func(op string, want string) {
		t.Helper()
		select {
		case name := <-invalidated:
			if name != want {
				t.Fatalf("%s: holder heard %q, want %q", op, name, want)
			}
		default:
			t.Fatalf("%s: the holder leased before the install never heard it", op)
		}
	}
	add := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(add, 0, "tgt")
	proto.SetAddContextTarget(add, uint32(ps.PID()), 7)
	if reply, err := client.Send(add, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("define tgt: op=%v err=%v", reply.Op, err)
	}
	heard("define tgt", "tgt")
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, "ghost")
	if reply, err := client.Send(del, ps.PID()); err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("delete ghost: op=%v err=%v", reply.Op, err)
	}
	heard("delete ghost", "ghost")
}
