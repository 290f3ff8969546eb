package prefix

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/vtime"
)

func TestHasPrefix(t *testing.T) {
	if !HasPrefix("[storage]/x") || HasPrefix("plain") || HasPrefix("") {
		t.Fatal("HasPrefix misclassifies")
	}
}

func TestParse(t *testing.T) {
	pfx, rest, err := Parse("[storage]/users/mann", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pfx != "storage" || "[storage]/users/mann"[rest:] != "users/mann" {
		t.Fatalf("pfx=%q rest=%d", pfx, rest)
	}
}

func TestParseNoSeparatorAfterBracket(t *testing.T) {
	pfx, rest, err := Parse("[home]welcome.txt", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pfx != "home" || "[home]welcome.txt"[rest:] != "welcome.txt" {
		t.Fatalf("pfx=%q rest=%d", pfx, rest)
	}
}

func TestParseBareBrackets(t *testing.T) {
	pfx, rest, err := Parse("[print]", 0)
	if err != nil {
		t.Fatal(err)
	}
	if pfx != "print" || rest != len("[print]") {
		t.Fatalf("pfx=%q rest=%d", pfx, rest)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "noprefix", "[unterminated", "[]empty"} {
		if _, _, err := Parse(bad, 0); !errors.Is(err, proto.ErrBadArgs) {
			t.Errorf("Parse(%q) err = %v", bad, err)
		}
	}
}

func TestParseAtIndex(t *testing.T) {
	name := "xxx[tty]vgt1"
	pfx, rest, err := Parse(name, 3)
	if err != nil || pfx != "tty" || name[rest:] != "vgt1" {
		t.Fatalf("pfx=%q rest=%d err=%v", pfx, rest, err)
	}
}

func TestQuoteParseRoundTrip(t *testing.T) {
	f := func(raw string) bool {
		name := strings.Map(func(r rune) rune {
			if r == '[' || r == ']' || r == '/' {
				return -1
			}
			return r
		}, raw)
		if name == "" {
			return true
		}
		pfx, _, err := Parse(Quote(name)+"rest", 0)
		return err == nil && pfx == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// newPrefixRig builds a minimal domain: one workstation with a prefix
// server, plus a toy target server that records what reaches it.
func newPrefixRig(t *testing.T) (*Server, *kernel.Process, *kernel.Process, chan *proto.Message) {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	ws := k.NewHost("ws")
	srvHost := k.NewHost("srv")

	seen := make(chan *proto.Message, 16)
	target, err := srvHost.Spawn("target", func(p *kernel.Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			seen <- msg.Clone()
			reply := proto.NewReply(proto.ReplyOK)
			reply.F[0] = msg.F[0] // echo context id back
			if err := p.Reply(reply, from); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	ps, err := Start(ws, "mann")
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
		client.Destroy()
	})
	if err := ps.Define("tgt", core.ContextPair{Server: target.PID(), Ctx: 42}); err != nil {
		t.Fatal(err)
	}
	return ps, client, target, seen
}

func TestForwardRewritesContextAndIndex(t *testing.T) {
	ps, client, _, seen := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "[tgt]a/b")
	reply, err := client.Send(req, ps.PID())
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v", reply.Op)
	}
	got := <-seen
	name, idx, err := proto.CSName(got)
	if err != nil {
		t.Fatal(err)
	}
	if proto.CSNameContext(got) != 42 {
		t.Fatalf("forwarded context = %d", proto.CSNameContext(got))
	}
	if name[idx:] != "a/b" {
		t.Fatalf("forwarded name remainder = %q", name[idx:])
	}
}

func TestUnknownPrefixNotFound(t *testing.T) {
	ps, client, _, _ := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "[nope]x")
	reply, err := client.Send(req, ps.PID())
	if err != nil {
		t.Fatal(err)
	}
	if reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v", reply.Op)
	}
}

func TestDynamicBindingUsesGetPid(t *testing.T) {
	ps, client, target, seen := newPrefixRig(t)
	if err := ps.DefineDynamic("svc", kernel.ServiceTime, core.CtxDefault); err != nil {
		t.Fatal(err)
	}
	// Service not yet registered: use fails.
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "[svc]x")
	reply, err := client.Send(req, ps.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	// Register the service; the same name now works.
	if err := target.SetPid(kernel.ServiceTime, target.PID(), kernel.ScopeBoth); err != nil {
		t.Fatal(err)
	}
	req2 := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req2, 0, "[svc]x")
	reply, err = client.Send(req2, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	<-seen
}

func TestAddDeleteViaProtocol(t *testing.T) {
	ps, client, target, _ := newPrefixRig(t)
	add := &proto.Message{Op: proto.OpAddContextName}
	proto.SetCSName(add, 0, "added")
	proto.SetAddContextTarget(add, uint32(target.PID()), 7)
	reply, err := client.Send(add, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("add reply = %v, %v", reply, err)
	}
	if _, ok := ps.Bindings()["added"]; !ok {
		t.Fatal("binding missing after add")
	}
	del := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del, 0, "added")
	reply, err = client.Send(del, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("delete reply = %v, %v", reply, err)
	}
	if _, ok := ps.Bindings()["added"]; ok {
		t.Fatal("binding still present after delete")
	}
	// Deleting again fails.
	del2 := &proto.Message{Op: proto.OpDeleteContextName}
	proto.SetCSName(del2, 0, "added")
	reply, err = client.Send(del2, ps.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("second delete reply = %v, %v", reply, err)
	}
}

func TestDefineValidation(t *testing.T) {
	ps, _, _, _ := newPrefixRig(t)
	if err := ps.Define("has/slash", core.ContextPair{}); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if err := ps.Define("", core.ContextPair{}); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if err := ps.Define("tgt", core.ContextPair{}); !errors.Is(err, proto.ErrDuplicateName) {
		t.Fatalf("err = %v", err)
	}
}

func TestMapContextOfPrefixServerItself(t *testing.T) {
	ps, client, _, _ := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpMapContext}
	proto.SetCSName(req, 0, "")
	reply, err := client.Send(req, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	pid, ctx := proto.GetMapContextReply(reply)
	if kernel.PID(pid) != ps.PID() || ctx != uint32(core.CtxDefault) {
		t.Fatalf("pair = %#x, %d", pid, ctx)
	}
}

func TestQueryPrefixDescriptor(t *testing.T) {
	ps, client, target, _ := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "tgt") // no bracket: the server's own name space
	reply, err := client.Send(req, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	d, _, err := proto.DecodeDescriptor(reply.Segment)
	if err != nil {
		t.Fatal(err)
	}
	if d.Tag != proto.TagContextPrefix || d.Name != "tgt" || d.Owner != "mann" {
		t.Fatalf("descriptor = %+v", d)
	}
	if kernel.PID(d.TypeSpecific[0]) != target.PID() || d.TypeSpecific[1] != 42 {
		t.Fatalf("target = %v", d.TypeSpecific)
	}
}

func TestInverseMapping(t *testing.T) {
	ps, client, target, _ := newPrefixRig(t)
	req := &proto.Message{Op: proto.OpGetContextName}
	req.F[0] = 42
	req.F[1] = uint32(target.PID())
	reply, err := client.Send(req, ps.PID())
	if err != nil || reply.Op != proto.ReplyOK {
		t.Fatalf("reply = %v, %v", reply, err)
	}
	if string(reply.Segment) != "[tgt]" {
		t.Fatalf("inverse = %q", reply.Segment)
	}
	// Unknown pair: not found.
	req2 := &proto.Message{Op: proto.OpGetContextName}
	req2.F[0] = 99
	req2.F[1] = uint32(target.PID())
	reply, err = client.Send(req2, ps.PID())
	if err != nil || reply.Op != proto.ReplyNotFound {
		t.Fatalf("reply = %v, %v", reply, err)
	}
}

func TestModifyThroughDirectoryRecord(t *testing.T) {
	ps, _, target, _ := newPrefixRig(t)
	rec := proto.Descriptor{
		Tag:          proto.TagContextPrefix,
		Name:         "tgt",
		TypeSpecific: [2]uint32{uint32(target.PID()), 77},
	}
	if err := ps.modifyFromRecord(rec); err != nil {
		t.Fatal(err)
	}
	b := ps.Bindings()["tgt"]
	if b.Pair.Ctx != 77 {
		t.Fatalf("binding after modify = %+v", b)
	}
	// Unknown prefix rejected.
	rec.Name = "ghost"
	if err := ps.modifyFromRecord(rec); !errors.Is(err, proto.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Wrong tag rejected.
	rec.Name = "tgt"
	rec.Tag = proto.TagFile
	if err := ps.modifyFromRecord(rec); !errors.Is(err, proto.ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestTableBytesGrows(t *testing.T) {
	ps, _, _, _ := newPrefixRig(t)
	before := ps.TableBytes()
	if err := ps.Define("another", core.ContextPair{}); err != nil {
		t.Fatal(err)
	}
	if ps.TableBytes() <= before {
		t.Fatal("TableBytes should grow with the table")
	}
}

func TestPrefixProcessingChargesCalibratedCost(t *testing.T) {
	ps, client, _, _ := newPrefixRig(t)
	model := client.Kernel().Model()
	start := client.Now()
	req := &proto.Message{Op: proto.OpQueryObject}
	proto.SetCSName(req, 0, "[tgt]x")
	if _, err := client.Send(req, ps.PID()); err != nil {
		t.Fatal(err)
	}
	elapsed := client.Now() - start
	if elapsed < model.PrefixRewriteCost {
		t.Fatalf("prefixed request cost %v, must include the %v prefix processing", elapsed, model.PrefixRewriteCost)
	}
}

// newBareServer builds a prefix server that is not serving: enough to
// drive its table and inverse index directly.
func newBareServer(t *testing.T) *Server {
	t.Helper()
	k := kernel.New(netsim.New(vtime.DefaultModel(), 1))
	proc, err := k.NewHost("ws").NewProcess("prefix")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.Destroy)
	return New(proc, "mann")
}

// inverseOf asks s's inverse query for the name of pair.
func inverseOf(s *Server, pair core.ContextPair) string {
	req := &proto.Message{Op: proto.OpGetContextName}
	req.F[0], req.F[1] = uint32(pair.Ctx), uint32(pair.Server)
	reply := s.handleInverse(req)
	return reply.Op.String() + " " + string(reply.Segment)
}

// TestDefineAllMatchesDefine pins the bulk define against a Define loop
// over the same names: equal tables, table sizes and inverse answers,
// on an empty server and on one that already holds bindings; and a bad
// name or a duplicate leaves the table untouched.
func TestDefineAllMatchesDefine(t *testing.T) {
	pairs := []core.ContextPair{{Server: 5, Ctx: 1}, {Server: 5, Ctx: 2}, {Server: 6, Ctx: 1}, {Server: 7, Ctx: 9}}
	var names []string
	var binds []Binding
	for i := 0; i < 2_000; i++ {
		name := fmt.Sprintf("%s.n%d", []string{"home", "storage", "pub", "h"}[i%4], i*7919%2_000)
		if i%50 == 0 {
			name = Quote(name) // brackets are trimmed on both paths
		}
		b := Binding{Pair: pairs[i%len(pairs)]}
		if i%9 == 0 {
			b = Binding{Dynamic: true, Service: kernel.ServiceStorage, WellKnown: core.ContextID(i)}
		}
		names, binds = append(names, name), append(binds, b)
	}
	for _, preset := range []int{0, 300} {
		t.Run(fmt.Sprintf("preset=%d", preset), func(t *testing.T) {
			one, bulk := newBareServer(t), newBareServer(t)
			for i := range names {
				if err := one.define(names[i], binds[i]); err != nil {
					t.Fatal(err)
				}
				if i < preset {
					if err := bulk.define(names[i], binds[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := bulk.DefineAll(names[preset:], binds[preset:]); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bulk.Bindings(), one.Bindings()) {
				t.Fatal("DefineAll table differs from the Define loop's")
			}
			if bulk.TableBytes() != one.TableBytes() {
				t.Fatalf("TableBytes %d, Define loop %d", bulk.TableBytes(), one.TableBytes())
			}
			for _, p := range append(pairs, core.ContextPair{Server: 99, Ctx: 99}) {
				if got, want := inverseOf(bulk, p), inverseOf(one, p); got != want {
					t.Fatalf("inverse of %v = %q, Define loop %q", p, got, want)
				}
			}

			before, size := bulk.Bindings(), bulk.index.Len()
			for _, c := range []struct {
				what  string
				names []string
				binds []Binding
				err   error
			}{
				{"bad name", []string{"fresh", "has/slash"}, make([]Binding, 2), proto.ErrBadArgs},
				{"empty name", []string{"[]"}, make([]Binding, 1), proto.ErrBadArgs},
				{"length mismatch", []string{"fresh"}, nil, proto.ErrBadArgs},
				{"duplicate in batch", []string{"fresh", "zz", "[fresh]"}, make([]Binding, 3), proto.ErrDuplicateName},
				{"duplicate of table", []string{"fresh", names[len(names)-1]}, make([]Binding, 2), proto.ErrDuplicateName},
			} {
				if err := bulk.DefineAll(c.names, c.binds); !errors.Is(err, c.err) {
					t.Fatalf("%s: err = %v, want %v", c.what, err, c.err)
				}
				if bulk.index.Len() != size || !reflect.DeepEqual(bulk.Bindings(), before) {
					t.Fatalf("%s: a refused DefineAll changed the table", c.what)
				}
			}
		})
	}
}
