// Package prefix implements the V-System context prefix server (§5.8, §6):
// a per-user CSNH server that gives locally-defined character-string names
// to contexts on servers of interest.
//
// A context prefix is the part of a CSname the prefix server parses to
// decide where to forward the request: any CSname starting with '[', with
// the prefix terminated by a closing ']'. Prefixes bind either statically
// to a (server-pid, context-id) pair, or dynamically to a
// (service, well-known-context-id) pair for which the server performs a
// GetPid operation each time the name is used — this is how generic
// services get character-string names (§6).
//
// The prefix server demonstrates the protocol's flexibility: it is a
// conforming CSNH server with a completely different name syntax and
// interpretation from the hierarchical file servers, unified only by the
// standard CSname request fields and forwarding conventions.
package prefix

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/namestat"
	"repro/internal/nametree"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/vio"
)

// Marker is the character that introduces a context prefix. The standard
// run-time routines check for it in a single common routine (§6).
const Marker = '['

// closer terminates a context prefix.
const closer = ']'

// HasPrefix reports whether a CSname starts with a context prefix — the
// client-side check localized in one routine (§6).
func HasPrefix(name string) bool {
	return len(name) > 0 && name[0] == Marker
}

// Parse splits a CSname of the form "[prefix]rest" starting at index,
// returning the prefix and the index of the first byte after the closing
// bracket.
func Parse(name string, index int) (pfx string, rest int, err error) {
	if index < 0 || index >= len(name) || name[index] != Marker {
		return "", 0, fmt.Errorf("%w: name does not start with a context prefix", proto.ErrBadArgs)
	}
	end := strings.IndexByte(name[index:], closer)
	if end < 0 {
		return "", 0, fmt.Errorf("%w: unterminated context prefix", proto.ErrBadArgs)
	}
	pfx = name[index+1 : index+end]
	if pfx == "" {
		return "", 0, fmt.Errorf("%w: empty context prefix", proto.ErrBadArgs)
	}
	rest = index + end + 1
	// A separator directly after the bracket is part of the syntax, not
	// of the remaining name.
	for rest < len(name) && name[rest] == core.Separator {
		rest++
	}
	return pfx, rest, nil
}

// Quote renders a prefix name in its bracketed syntax.
func Quote(pfx string) string { return string(Marker) + pfx + string(closer) }

// Binding is the definition of one context prefix.
type Binding struct {
	// Dynamic selects between the two arms below.
	Dynamic bool
	// Pair is the static (server-pid, context-id) target.
	Pair core.ContextPair
	// Service and WellKnown are the dynamic target, re-resolved with
	// GetPid on every use.
	Service   kernel.Service
	WellKnown core.ContextID
}

// Stats counts the prefix server's forwarding and recovery activity —
// the per-session resilience record the chaos experiments read (§2.2's
// reliability argument, measured during faults rather than after them).
type Stats struct {
	// Forwards counts CSname requests rewritten and passed on.
	Forwards uint64
	// Rebinds counts uses of a dynamic binding that resolved to a
	// different pid than its previous use: the service failed over to a
	// replica or was re-implemented by a new process (§4.2).
	Rebinds uint64
	// DeadTargets counts requests answered with a bounded-time failure
	// because no live target could be resolved for the binding.
	DeadTargets uint64
}

// Option configures a prefix server.
type Option func(*Server)

// WithTeam sets the server-team size — the number of serving processes
// (§3.1). The default 1 preserves the calibrated single-process behavior.
func WithTeam(n int) Option {
	return func(s *Server) { s.teamSize = n }
}

// Server is one user's context prefix server. It normally runs on the
// user's workstation, so the request that reaches it always pays only a
// local hop (§6).
type Server struct {
	proc     *kernel.Process
	owner    string
	reg      *vio.Registry
	team     *core.Team
	teamSize int

	// index is the prefix table: a COW radix tree (PROTOCOL.md §14)
	// whose reads — resolution, classifier probes, directory walks,
	// table snapshots — are lock-free against one immutable root. Each
	// entry carries the binding and the name's lease-holder group, so a
	// lease grant stamps off the same node the resolution descended:
	// grant+lookup is one descent. mu serializes mutations of the index
	// and guards the plain maps below; it is never taken on the
	// resolution hit path.
	index *nametree.Tree[tableEntry]
	mu    sync.Mutex
	// reverse answers the inverse (binding→name) query with the sorted
	// first-match semantics the linear scan used to give (§6).
	reverse *nametree.Reverse[core.ContextPair]
	// lastResolved remembers, per dynamic prefix, the pid its last use
	// resolved to, so rebinds (§4.2) are observable in Stats.
	lastResolved map[string]kernel.PID

	// Lease state (lease.go). leaseLen > 0 enables lease granting;
	// orphans holds the holder groups of names with no current binding
	// (negative leases, and groups parked across a delete so identity
	// survives a redefine); dirty queues names a directory-record write
	// modified, invalidated by the serve loop before the write's reply.
	leaseLen time.Duration
	orphans  map[string]kernel.PID
	dirty    []string

	// stats counters are atomics: team workers bump them concurrently.
	stats    statsCounters
	leaseCtr leaseCounters

	// Observability (PROTOCOL.md §15): always-on hot-name sketch and
	// per-name churn estimators — observers, zero virtual cost — plus
	// the optional lease auto-tuner they feed (tuner.go).
	topk  *namestat.TopK
	rates *namestat.Rates
	tuner *autoTuner
}

// leaseCounters is the lock-free backing store for LeaseStats.
type leaseCounters struct {
	grants        atomic.Uint64
	negatives     atomic.Uint64
	invalidations atomic.Uint64
	notified      atomic.Uint64
}

// statsCounters is the lock-free backing store for Stats.
type statsCounters struct {
	forwards    atomic.Uint64
	rebinds     atomic.Uint64
	deadTargets atomic.Uint64
}

func (c *statsCounters) load() Stats {
	return Stats{
		Forwards:    c.forwards.Load(),
		Rebinds:     c.rebinds.Load(),
		DeadTargets: c.deadTargets.Load(),
	}
}

// tableEntry is one prefix table slot: the binding plus the name's
// lease-holder group (NilPID until the first grant), co-located on the
// index node so resolution and lease stamping share one descent.
type tableEntry struct {
	b       Binding
	holders kernel.PID
}

// New creates a prefix server for the given user on proc. Call Run in the
// process goroutine.
func New(proc *kernel.Process, owner string, opts ...Option) *Server {
	s := &Server{
		proc:         proc,
		owner:        owner,
		reg:          vio.NewRegistry(),
		teamSize:     1,
		index:        nametree.New[tableEntry](),
		reverse:      nametree.NewReverse[core.ContextPair](),
		lastResolved: make(map[string]kernel.PID),
		orphans:      make(map[string]kernel.PID),
		topk:         namestat.NewTopK(32),
		rates:        namestat.NewRates(0),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.team = core.NewTeam(proc, s.teamSize, s.serveOne, nil)
	return s
}

// Start spawns a prefix server process on host and runs it.
func Start(host *kernel.Host, owner string, opts ...Option) (*Server, error) {
	proc, err := host.NewProcess("context-prefix[" + owner + "]")
	if err != nil {
		return nil, err
	}
	s := New(proc, owner, opts...)
	if err := s.team.Start(); err != nil {
		return nil, err
	}
	if err := proc.SetPid(kernel.ServiceContextPrefix, proc.PID(), kernel.ScopeLocal); err != nil {
		return nil, err
	}
	return s, nil
}

// Err reports why the server stopped serving: nil while it is running,
// kernel.ErrProcessDead after a clean destroy, an error wrapping
// kernel.ErrHostDown after a host crash.
func (s *Server) Err() error { return s.team.Err() }

// PID returns the server's process identifier.
func (s *Server) PID() kernel.PID { return s.proc.PID() }

// Proc returns the server process.
func (s *Server) Proc() *kernel.Process { return s.proc }

// Owner returns the user the server belongs to.
func (s *Server) Owner() string { return s.owner }

// Define creates a static prefix binding (boot-time convenience; clients
// use OpAddContextName).
func (s *Server) Define(name string, pair core.ContextPair) error {
	return s.define(name, Binding{Pair: pair})
}

// DefineDynamic creates a dynamic (service, well-known-context) binding.
func (s *Server) DefineDynamic(name string, service kernel.Service, wellKnown core.ContextID) error {
	return s.define(name, Binding{Dynamic: true, Service: service, WellKnown: wellKnown})
}

func (s *Server) define(name string, b Binding) error {
	name = strings.Trim(name, "[]")
	if name == "" || strings.ContainsAny(name, "[]/") {
		return fmt.Errorf("%w: bad prefix name %q", proto.ErrBadArgs, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index.Get(name); dup {
		return fmt.Errorf("%q: %w", name, proto.ErrDuplicateName)
	}
	// A holder group parked by a negative lease or an earlier delete
	// moves onto the new node, so the define's invalidation (and every
	// later grant) keeps the group identity.
	gid := kernel.NilPID
	if g, ok := s.orphans[name]; ok {
		gid = g
		delete(s.orphans, name)
	}
	s.index.Insert(name, tableEntry{b: b, holders: gid})
	if !b.Dynamic {
		s.reverse.Add(b.Pair, name)
	}
	return nil
}

// Bindings returns a snapshot of the prefix table, read from the
// immutable radix root — no copy is made under the server mutex, so a
// monitor calling this at population scale never stalls resolution.
func (s *Server) Bindings() map[string]Binding {
	out := make(map[string]Binding, s.index.Len())
	s.index.Walk(func(name string, e tableEntry) bool {
		out[name] = e.b
		return true
	})
	return out
}

// TableBytes approximates the in-memory size of the prefix table — the
// figure reported against the paper's 2.6 KB of MC68000 data (§6). Two
// atomic counter loads; the old implementation scanned the table under
// the server mutex.
func (s *Server) TableBytes() int {
	return s.index.KeyBytes() + s.index.Len()*int(unsafe.Sizeof(Binding{}))
}

// Run is the server main loop; team workers, if configured, are spawned
// first.
func (s *Server) Run() { s.team.Run() }

// serveOne processes one request on the serving process p (the
// receptionist, or a team worker after a §3.1 handoff).
func (s *Server) serveOne(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	tr := p.Tracer()
	var sp trace.SpanID
	if tr != nil {
		sp = tr.Start(p.PendingSpan(from), trace.KindServe, msg.Op.String(), p.Now(), p.TraceID())
		p.SetCurrentSpan(sp)
	}
	model := p.Kernel().Model()
	reg := p.Kernel().Metrics()
	serveStart := p.Now()
	p.ChargeCompute(model.ServerDispatchCost)

	var reply *proto.Message
	switch {
	case msg.Op.IsCSNameOp():
		reply = s.handleCSName(p, msg, from)
	case msg.Op == proto.OpGetContextName:
		reply = s.handleInverse(msg)
	default:
		if r := s.reg.HandleOp(p, msg); r != nil {
			reply = r
		} else {
			reply = proto.NewReply(proto.ReplyIllegalRequest)
		}
	}
	// A directory-record write may have redefined prefixes: invalidate
	// their lease holders before the write's reply commits it.
	s.drainDirty(p)
	if reply == nil {
		// The request was forwarded along a prefix binding.
		if tr != nil {
			tr.End(sp, p.Now())
			p.SetCurrentSpan(0)
		}
		return
	}
	if tr != nil {
		// Classify non-OK replies on the serve span and end it before the
		// Reply unblocks the client (snapshot consistency — see core).
		class := ""
		if reply.Op != proto.ReplyOK {
			class = reply.Op.String()
		}
		tr.Fail(sp, p.Now(), class)
	}
	if reg != nil {
		// Mirrors core.Server.instrumentServe: recorded before the Reply
		// unblocks the client, only for requests answered here.
		lbl := metrics.Labels{Server: s.proc.Name(), Op: msg.Op.String()}
		reg.Histogram("serve_latency", lbl).Record(p.Now() - serveStart)
		reg.Counter("server_requests_total", lbl).Inc()
		if reply.Op != proto.ReplyOK {
			reg.Counter("server_failures_total", lbl).Inc()
		}
	}
	_ = p.Reply(reply, from)
	if tr != nil {
		p.SetCurrentSpan(0)
	}
}

// handleCSName routes any CSname request: a bracketed prefix selects a
// binding and the request is rewritten and forwarded (§6) — including
// add/delete-context-name requests destined for another server's name
// space. Bracket-less names address the prefix server's own context: its
// prefix table, where the optional add/delete operations are implemented
// (§5.7).
func (s *Server) handleCSName(p *kernel.Process, msg *proto.Message, from kernel.PID) *proto.Message {
	model := p.Kernel().Model()
	name, index, err := proto.CSName(msg)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}

	if index >= len(name) || name[index] != Marker {
		switch msg.Op {
		case proto.OpAddContextName:
			return s.handleAdd(p, msg)
		case proto.OpDeleteContextName:
			return s.handleDelete(p, msg)
		default:
			return s.handleOwnName(p, msg, name[index:])
		}
	}

	// The calibrated per-request processing cost of the MC68000 prefix
	// server: re-validating the request, parsing the prefix, scanning the
	// table and rewriting the message (§6).
	p.ChargeCompute(model.PrefixRewriteCost)

	pfx, rest, err := Parse(name, index)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	// Observers only — neither the sketch, the estimator nor the flight
	// recorder charges virtual time.
	s.topk.Observe(pfx)
	s.rates.ObserveResolution(pfx, p.Now())
	p.Kernel().Flight().Record(p.Now(), flight.KindResolution, pfx, s.proc.Name(), "")
	// The resolution fast path: one lock-free descent of the radix index
	// yields the binding and the node's holder group together.
	e, ok := s.index.Get(pfx)
	b := e.b
	cb, wantLease := s.leaseWanted(msg, name, rest)
	if !ok {
		reply := core.ErrorReplyMsg(fmt.Errorf("prefix %q: %w", pfx, proto.ErrNotFound))
		if wantLease {
			// Unknown prefix, lease requested: grant a negative lease so
			// the holder answers repeated lookups locally until a define
			// invalidates it (lease.go).
			s.stampLease(p, reply, pfx, cb, true, kernel.NilPID)
		}
		return reply
	}
	pair, err := s.resolveBinding(p, b)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	// Dynamic bindings recover at time of use (§4.2): GetPid just
	// re-resolved the service, so a replica or re-created server takes
	// over transparently — count the rebind when the answer moved. If the
	// resolution points at a dead process (a stale registration left in
	// another kernel's service table), answer with a bounded-time failure
	// instead of forwarding into a dead transaction, charging the
	// retransmit budget the discovery would have cost.
	if b.Dynamic {
		if !p.Kernel().ProcessAlive(pair.Server) {
			p.ChargeCompute(model.RetransmitTimeout)
			s.stats.deadTargets.Add(1)
			p.Kernel().Metrics().
				Counter("prefix_dead_targets_total", metrics.Labels{Server: s.proc.Name()}).Inc()
			p.Kernel().Flight().Record(p.Now(), flight.KindFailover, pfx, s.proc.Name(), "dead-target")
			return core.ErrorReplyMsg(fmt.Errorf("prefix %q: no live server for service %v: %w",
				pfx, b.Service, proto.ErrTimeout))
		}
		s.mu.Lock()
		rebound := false
		if prev, ok := s.lastResolved[pfx]; ok && prev != pair.Server {
			s.stats.rebinds.Add(1)
			rebound = true
		}
		s.lastResolved[pfx] = pair.Server
		s.mu.Unlock()
		if rebound {
			p.Kernel().Metrics().
				Counter("prefix_rebinds_total", metrics.Labels{Server: s.proc.Name()}).Inc()
			p.Kernel().Flight().Record(p.Now(), flight.KindFailover, pfx, s.proc.Name(), "rebind")
		}
	}
	if wantLease {
		// A bare-prefix MapContext asking for a lease is answered directly
		// from the table — the server knows the pair and must be the one
		// stamping the expiry and tracking the holder — where the plain
		// protocol would forward it to the target server (lease.go).
		reply := core.OkReply()
		proto.SetMapContextReply(reply, uint32(pair.Server), uint32(pair.Ctx))
		s.stampLease(p, reply, pfx, cb, false, e.holders)
		return reply
	}
	proto.RewriteCSName(msg, uint32(pair.Ctx), rest)
	s.stats.forwards.Add(1)
	p.Kernel().Flight().Record(p.Now(), flight.KindForward, pfx, s.proc.Name(), "")
	// Counted before the Forward delivers (see core.serveCSName).
	p.Kernel().Metrics().
		Counter("prefix_forwards_total", metrics.Labels{Server: s.proc.Name()}).Inc()
	// A failed forward already failed the client's transaction.
	_ = p.Forward(msg, from, pair.Server)
	return nil
}

// Stats returns a stabilized snapshot of the forwarding and recovery
// counters (see metrics.StableRead).
func (s *Server) Stats() Stats {
	return metrics.StableRead(s.stats.load)
}

// TopNames returns the server's hot-name sketch, count-descending.
func (s *Server) TopNames() []namestat.Item { return s.topk.Snapshot() }

// NameRates returns the server's per-name churn estimators.
func (s *Server) NameRates() []namestat.RateItem { return s.rates.Snapshot() }

// Rates exposes the estimator table (read-only use: experiments and the
// tuner verification suite probe individual names).
func (s *Server) Rates() *namestat.Rates { return s.rates }

// PublishNamestat copies the sketch and estimator state into reg as
// volatile gauges — on demand, so deterministic metrics documents never
// see them (namestat.Publish).
func (s *Server) PublishNamestat(reg *metrics.Registry) {
	namestat.Publish(reg, s.proc.Name(), s.topk, s.rates)
}

// resolveBinding maps a binding to a concrete context pair; dynamic
// bindings perform GetPid at time of use, so the name keeps working after
// the service is re-implemented by a new process (§6).
func (s *Server) resolveBinding(p *kernel.Process, b Binding) (core.ContextPair, error) {
	if !b.Dynamic {
		return b.Pair, nil
	}
	pid, err := p.GetPid(b.Service, kernel.ScopeBoth)
	if err != nil {
		return core.ContextPair{}, fmt.Errorf("service %v: %w", b.Service, proto.ErrNotFound)
	}
	return core.ContextPair{Server: pid, Ctx: b.WellKnown}, nil
}

// handleOwnName serves requests on the prefix server's own (single)
// context: its context directory and per-prefix queries.
func (s *Server) handleOwnName(p *kernel.Process, msg *proto.Message, rest string) *proto.Message {
	rest = strings.TrimLeft(rest, string(core.Separator))
	switch msg.Op {
	case proto.OpCreateInstance:
		if proto.OpenMode(msg)&proto.ModeDirectory == 0 || rest != "" {
			return core.ErrorReplyMsg(proto.ErrNotFound)
		}
		return s.openDirectory(p, msg)
	case proto.OpQueryObject:
		e, ok := s.index.Get(rest)
		if !ok {
			return core.ErrorReplyMsg(proto.ErrNotFound)
		}
		p.ChargeCompute(p.Kernel().Model().DescriptorFabricateCost)
		reply := core.OkReply()
		d := s.describe(rest, e.b)
		reply.Segment = d.AppendEncoded(nil)
		return reply
	case proto.OpMapContext:
		if rest == "" {
			reply := core.OkReply()
			proto.SetMapContextReply(reply, uint32(s.proc.PID()), uint32(core.CtxDefault))
			return reply
		}
		return core.ErrorReplyMsg(proto.ErrNotFound)
	default:
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
}

// describe fabricates the description record of one prefix (§5.6).
// ObjectID 1 marks a dynamic binding; TypeSpecific carries the target
// pair (static) or the (service, well-known-context) pair (dynamic).
func (s *Server) describe(name string, b Binding) proto.Descriptor {
	d := proto.Descriptor{
		Tag:   proto.TagContextPrefix,
		Name:  name,
		Owner: s.owner,
		Perms: proto.PermRead | proto.PermWrite,
	}
	if b.Dynamic {
		d.ObjectID = 1
		d.TypeSpecific = [2]uint32{uint32(b.Service), uint32(b.WellKnown)}
	} else {
		d.TypeSpecific = [2]uint32{uint32(b.Pair.Server), uint32(b.Pair.Ctx)}
	}
	return d
}

// openDirectory fabricates the prefix table's context directory; writing
// a record back redefines the corresponding prefix (§5.6).
func (s *Server) openDirectory(p *kernel.Process, msg *proto.Message) *proto.Message {
	pattern, err := proto.DirPattern(msg)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	model := p.Kernel().Model()
	// Walk one immutable snapshot in sorted order — no lock, no re-sort.
	records := make([]proto.Descriptor, 0, s.index.Len())
	s.index.Walk(func(n string, e tableEntry) bool {
		records = append(records, s.describe(n, e.b))
		return true
	})
	records = core.FilterRecords(records, pattern)
	p.ChargeCompute(time.Duration(len(records)) * model.DescriptorFabricateCost)

	inst := vio.NewDirectoryInstance(records, func(d proto.Descriptor) error {
		return s.modifyFromRecord(d)
	})
	id, err := s.reg.Open(inst, Quote(""))
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	info := inst.Info()
	info.ID = id
	reply := core.OkReply()
	proto.SetInstanceInfo(reply, info)
	proto.SetInstanceOwner(reply, uint32(s.proc.PID()))
	return reply
}

// modifyFromRecord applies a written directory record as a modification
// of the named prefix.
func (s *Server) modifyFromRecord(d proto.Descriptor) error {
	if d.Tag != proto.TagContextPrefix {
		return fmt.Errorf("%w: record tag %v", proto.ErrBadArgs, d.Tag)
	}
	b := Binding{}
	if d.ObjectID == 1 {
		b.Dynamic = true
		b.Service = kernel.Service(d.TypeSpecific[0])
		b.WellKnown = core.ContextID(d.TypeSpecific[1])
	} else {
		b.Pair = core.ContextPair{
			Server: kernel.PID(d.TypeSpecific[0]),
			Ctx:    core.ContextID(d.TypeSpecific[1]),
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index.Get(d.Name)
	if !ok {
		return fmt.Errorf("prefix %q: %w", d.Name, proto.ErrNotFound)
	}
	if !e.b.Dynamic {
		s.reverse.Remove(e.b.Pair, d.Name)
	}
	e.b = b
	s.index.Insert(d.Name, e)
	if !b.Dynamic {
		s.reverse.Add(b.Pair, d.Name)
	}
	// The vio write handler has no process context: queue the name and
	// let the serve loop invalidate holders before the write's reply.
	s.dirty = append(s.dirty, d.Name)
	return nil
}

// handleAdd implements OpAddContextName, one of the optional operations
// ordinarily implemented only by context prefix servers (§5.7). Defining
// a name invalidates its lease holders — negative caches of the
// previously-absent name — before the reply, so the define commits as a
// coherence barrier (lease.go).
func (s *Server) handleAdd(p *kernel.Process, msg *proto.Message) *proto.Message {
	name, index, err := proto.CSName(msg)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	dyn, pidOrService, ctx := proto.AddContextTarget(msg)
	b := Binding{}
	if dyn {
		b.Dynamic = true
		b.Service = kernel.Service(pidOrService)
		b.WellKnown = core.ContextID(ctx)
	} else {
		b.Pair = core.ContextPair{Server: kernel.PID(pidOrService), Ctx: core.ContextID(ctx)}
	}
	key := strings.Trim(name[index:], "[]")
	if err := s.define(key, b); err != nil {
		return core.ErrorReplyMsg(err)
	}
	s.invalidateName(p, key)
	return core.OkReply()
}

// handleDelete implements OpDeleteContextName. Deleting a name
// invalidates its lease holders before the reply (lease.go).
func (s *Server) handleDelete(p *kernel.Process, msg *proto.Message) *proto.Message {
	name, index, err := proto.CSName(msg)
	if err != nil {
		return core.ErrorReplyMsg(err)
	}
	key := strings.Trim(name[index:], "[]")
	s.mu.Lock()
	e, ok := s.index.Get(key)
	if !ok {
		s.mu.Unlock()
		return core.ErrorReplyMsg(fmt.Errorf("prefix %q: %w", key, proto.ErrNotFound))
	}
	s.index.Delete(key)
	if e.holders != kernel.NilPID {
		// Park the holder group so the delete's invalidation reaches it
		// and a later redefine re-adopts the same group.
		s.orphans[key] = e.holders
	}
	if !e.b.Dynamic {
		s.reverse.Remove(e.b.Pair, key)
	}
	delete(s.lastResolved, key)
	s.mu.Unlock()
	s.invalidateName(p, key)
	return core.OkReply()
}

// handleInverse implements OpGetContextName for the prefix server: given
// a (server-pid, context-id) pair (F[1], F[0]), return a prefix that
// names it, in bracketed syntax. As §6 observes this inverts a
// many-to-one mapping: the first matching (non-dynamic) prefix in sorted
// order is returned, and there may be none. The reverse index answers
// with that exact tie-break in O(1) where the old code scanned the
// sorted name table.
func (s *Server) handleInverse(msg *proto.Message) *proto.Message {
	target := core.ContextPair{Server: kernel.PID(msg.F[1]), Ctx: core.ContextID(msg.F[0])}
	s.mu.Lock()
	found, ok := s.reverse.First(target)
	s.mu.Unlock()
	if !ok {
		return core.ErrorReplyMsg(proto.ErrNotFound)
	}
	reply := core.OkReply()
	reply.Segment = []byte(Quote(found))
	return reply
}
