package core

import (
	"errors"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/trace"
)

// Request is one received message being processed by a CSNH server.
type Request struct {
	Msg  *proto.Message
	From kernel.PID
	srv  *Server
	proc *kernel.Process

	// name/res hold the CSname and its resolution once interpretation
	// completed at this server; the name-fault stage reads them.
	name string
	res  *Resolution
}

// Server returns the server processing the request.
func (r *Request) Server() *Server { return r.srv }

// Proc returns the process serving this request — the receptionist for a
// single-process server, the handling worker for a team (§3.1). Move
// operations and clock charges must go through it so one request's waits
// are charged to the process actually serving it.
func (r *Request) Proc() *kernel.Process {
	if r.proc != nil {
		return r.proc
	}
	return r.srv.proc
}

// Handler is the server-specific part of a CSNH server: the operations on
// the objects its store names.
type Handler interface {
	// HandleNamed processes a CSname request whose name interpretation
	// completed at this server (it was not forwarded). It returns the
	// reply message, or nil if the handler already replied or forwarded
	// itself.
	HandleNamed(req *Request, res *Resolution) *proto.Message
	// HandleOp processes a request that carries no CSname (instance
	// operations, inverse mappings, ...). Same reply convention.
	HandleOp(req *Request) *proto.Message
}

// ServerStats counts a CSNH server's protocol activity.
type ServerStats struct {
	// Requests is the number of requests received.
	Requests uint64
	// CSNameRequests is the subset carrying character-string names.
	CSNameRequests uint64
	// Forwarded counts requests passed on to another server
	// mid-interpretation (§5.4).
	Forwarded uint64
	// Failures counts non-OK replies sent.
	Failures uint64
	// Handoffs counts receptionist-to-worker forwards inside the server
	// team (§3.1) — intra-team, unlike the inter-server Forwarded.
	Handoffs uint64
}

// Option configures a Server.
type Option func(*serverOptions)

type serverOptions struct {
	team  int
	extra []Middleware
}

// WithTeam sets the number of serving processes (§3.1). 1 — the default —
// is the single-process server, which serves every request on the
// receptionist process exactly as before teams existed. For n > 1 the
// receptionist receives and forwards each transaction to one of n worker
// processes on the same host, so requests overlap in virtual time.
func WithTeam(n int) Option {
	return func(o *serverOptions) { o.team = n }
}

// WithMiddleware splices extra serving stages between the standard chain
// (dispatch charge, stats, name-fault decoration) and the route to the
// handler. Stages run on the serving process and must be safe for
// concurrent workers.
func WithMiddleware(stages ...Middleware) Option {
	return func(o *serverOptions) { o.extra = append(o.extra, stages...) }
}

// Server is the skeleton every character-string name handling server
// embeds: it runs the serving team, performs the standard processing any
// CSNH server can do on any CSname request — validating the standard
// fields and running the name-mapping procedure, forwarding partially
// interpreted names to other servers — and dispatches what remains to the
// Handler (§5.3-5.4). The standard per-request logic is factored into a
// middleware chain; the team runtime decides which process serves.
type Server struct {
	proc    *kernel.Process
	store   ContextStore
	handler Handler
	team    *Team
	serve   HandlerFunc

	// stats counters are atomics: team workers bump them concurrently on
	// every request, so the serving hot path must not share a mutex.
	stats serverCounters
}

// serverCounters is the lock-free backing store for ServerStats.
type serverCounters struct {
	requests  atomic.Uint64
	csname    atomic.Uint64
	forwarded atomic.Uint64
	failures  atomic.Uint64
	handoffs  atomic.Uint64
}

func (c *serverCounters) load() ServerStats {
	return ServerStats{
		Requests:       c.requests.Load(),
		CSNameRequests: c.csname.Load(),
		Forwarded:      c.forwarded.Load(),
		Failures:       c.failures.Load(),
		Handoffs:       c.handoffs.Load(),
	}
}

// NewServer assembles a CSNH server from its process, store and handler.
func NewServer(proc *kernel.Process, store ContextStore, handler Handler, opts ...Option) *Server {
	var o serverOptions
	for _, opt := range opts {
		opt(&o)
	}
	s := &Server{proc: proc, store: store, handler: handler}
	stages := append([]Middleware{
		s.instrumentServe,
		s.chargeDispatch,
		s.countRequests,
		s.countFailures,
		s.decorateNameFaults,
	}, o.extra...)
	s.serve = Chain(s.route, stages...)
	s.team = NewTeam(proc, o.team, s.serveOne, func() {
		s.stats.handoffs.Add(1)
		s.proc.Kernel().Metrics().
			Counter("server_handoffs_total", metrics.Labels{Server: s.proc.Name()}).Inc()
	})
	return s
}

// Proc returns the server's receptionist process — its public identity.
func (s *Server) Proc() *kernel.Process { return s.proc }

// PID returns the server's public process identifier (the receptionist's;
// clients address the team through it).
func (s *Server) PID() kernel.PID { return s.proc.PID() }

// Pair returns the fully-qualified context pair for one of this server's
// contexts.
func (s *Server) Pair(ctx ContextID) ContextPair {
	return ContextPair{Server: s.proc.PID(), Ctx: ctx}
}

// TeamSize returns the number of serving processes.
func (s *Server) TeamSize() int { return s.team.Size() }

// Run is the server main loop; it returns when the server process is
// destroyed. Run it in the receptionist's goroutine (Host.Spawn). Team
// workers, if configured, are spawned first.
func (s *Server) Run() { s.team.Run() }

// Start spawns the team workers and runs the reception loop in its own
// goroutine, returning the worker-spawn error if any.
func (s *Server) Start() error { return s.team.Start() }

// Err reports why the server stopped serving: nil while it is running,
// kernel.ErrProcessDead after a clean Destroy, and an error wrapping
// kernel.ErrHostDown when its host crashed (the Receive error Run used to
// swallow).
func (s *Server) Err() error { return s.team.Err() }

// Exited is closed once the serving team has stopped, after its exit
// cause and trace event are recorded (see Team.Exited).
func (s *Server) Exited() <-chan struct{} { return s.team.Exited() }

// Stats returns a stabilized snapshot of the server's protocol counters
// (see metrics.StableRead): a mid-run reader never sees a request
// counted whose CSname/failure classification is not.
func (s *Server) Stats() ServerStats {
	return metrics.StableRead(s.stats.load)
}

// serveOne processes a single request on the serving process p and
// replies or forwards exactly once.
func (s *Server) serveOne(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	tr := p.Tracer()
	var sp trace.SpanID
	if tr != nil {
		sp = tr.Start(p.PendingSpan(from), trace.KindServe, msg.Op.String(), p.Now(), p.TraceID())
		p.SetCurrentSpan(sp)
	}
	req := &Request{Msg: msg, From: from, srv: s, proc: p}
	reply := s.serve(req)
	if reply == nil {
		// A stage or the handler replied or forwarded itself.
		if tr != nil {
			tr.End(sp, p.Now())
			p.SetCurrentSpan(0)
		}
		return
	}
	if tr != nil {
		// Attach the per-request failure classification — which the reply
		// path below otherwise swallows — to the serve span, and end it
		// before the Reply unblocks the client, so a snapshot taken the
		// moment the client resumes never sees a half-open serve.
		class := ""
		if reply.Op != proto.ReplyOK {
			class = reply.Op.String()
		}
		tr.Fail(sp, p.Now(), class)
	}
	// A failed reply means the sender died or became unreachable; the
	// transaction is already failed on the sender side (and the reply
	// span carries the transport failure classification).
	_ = p.Reply(reply, from)
	if tr != nil {
		p.SetCurrentSpan(0)
	}
}

// instrumentServe is the outermost stage: when a metrics registry is
// installed it records the per-(server, op) serve-latency histogram and
// request/failure counters for every request this server answers
// itself. Requests that are forwarded or answered inside a handler
// (reply == nil) are deliberately not recorded here: their terminal
// server records them, and any bump after the forward could race the
// resumed client (the counters below always land before serveOne's
// Reply unblocks it). Recording charges zero virtual time.
func (s *Server) instrumentServe(next HandlerFunc) HandlerFunc {
	return func(req *Request) *proto.Message {
		reg := req.Proc().Kernel().Metrics()
		if reg == nil {
			return next(req)
		}
		start := req.Proc().Now()
		reply := next(req)
		if reply != nil {
			lbl := metrics.Labels{Server: s.proc.Name(), Op: req.Msg.Op.String()}
			reg.Histogram("serve_latency", lbl).Record(req.Proc().Now() - start)
			reg.Counter("server_requests_total", lbl).Inc()
			if reply.Op != proto.ReplyOK {
				reg.Counter("server_failures_total", lbl).Inc()
			}
		}
		return reply
	}
}

// chargeDispatch charges the fixed request-dispatch cost to the serving
// process.
func (s *Server) chargeDispatch(next HandlerFunc) HandlerFunc {
	return func(req *Request) *proto.Message {
		req.Proc().ChargeCompute(req.Proc().Kernel().Model().ServerDispatchCost)
		return next(req)
	}
}

// countRequests counts every request, and the CSname subset.
func (s *Server) countRequests(next HandlerFunc) HandlerFunc {
	return func(req *Request) *proto.Message {
		s.stats.requests.Add(1)
		if req.Msg.Op.IsCSNameOp() {
			s.stats.csname.Add(1)
		}
		return next(req)
	}
}

// countFailures counts non-OK replies sent.
func (s *Server) countFailures(next HandlerFunc) HandlerFunc {
	return func(req *Request) *proto.Message {
		reply := next(req)
		if reply != nil && reply.Op != proto.ReplyOK {
			s.stats.failures.Add(1)
		}
		return reply
	}
}

// decorateNameFaults adds name-fault details to failure replies for
// requests whose name interpretation completed here: the handler rejected
// the resolved final component, so report this server as the fault site —
// the client can then explain the failure even after forwarding (§7
// deficiency). Interpretation failures carry their fault details already.
func (s *Server) decorateNameFaults(next HandlerFunc) HandlerFunc {
	return func(req *Request) *proto.Message {
		reply := next(req)
		if reply != nil && reply.Op != proto.ReplyOK && req.res != nil {
			if _, _, _, ok := proto.NameFault(reply); !ok {
				proto.SetNameFault(reply, len(req.name)-len(req.res.Last), uint32(s.PID()), req.res.Last)
			}
		}
		return reply
	}
}

// route is the terminal stage: CSname requests get the standard
// name-mapping treatment, everything else goes to the handler.
func (s *Server) route(req *Request) *proto.Message {
	if req.Msg.Op.IsCSNameOp() {
		return s.serveCSName(req)
	}
	return s.handler.HandleOp(req)
}

// serveCSName performs the standard CSname processing: even if this server
// does not understand the operation code, it can parse the standard fields
// and run the mapping procedure, forwarding if the name leads elsewhere
// (§5.3).
func (s *Server) serveCSName(req *Request) *proto.Message {
	name, index, err := proto.CSName(req.Msg)
	if err != nil {
		return ErrorReplyMsg(err)
	}
	interp := Interpret
	if req.Msg.Op == proto.OpDeleteContextName {
		// Deleting a context name operates on the binding itself; a
		// final component that points into another server must not be
		// forwarded there (§5.7).
		interp = InterpretBinding
	}
	res, fwd, err := interp(s.store, req.Proc(), name, index, ContextID(proto.CSNameContext(req.Msg)))
	if err != nil {
		return s.faultReply(err)
	}
	if fwd != nil {
		s.stats.forwarded.Add(1)
		// Counted before the Forward delivers: the terminal server may
		// serve and unblock the client before this goroutine runs again.
		req.Proc().Kernel().Metrics().
			Counter("server_forwarded_total", metrics.Labels{Server: s.proc.Name(), Op: req.Msg.Op.String()}).Inc()
		proto.RewriteCSName(req.Msg, uint32(fwd.Pair.Ctx), fwd.Index)
		// A failed forward has already failed the sender's transaction.
		_ = req.Proc().Forward(req.Msg, req.From, fwd.Pair.Server)
		return nil
	}
	req.name, req.res = name, res
	// OpMapContext is fully determined by the resolution, so the skeleton
	// implements it for every server (§5.7).
	if req.Msg.Op == proto.OpMapContext {
		return s.mapContextReply(res)
	}
	return s.handler.HandleNamed(req, res)
}

// faultReply builds a failure reply carrying name-fault details when the
// error is a NameError from interpretation.
func (s *Server) faultReply(err error) *proto.Message {
	reply := ErrorReplyMsg(err)
	var ne *NameError
	if errors.As(err, &ne) {
		proto.SetNameFault(reply, ne.Index, uint32(s.PID()), ne.Component)
	}
	return reply
}

// mapContextReply builds the standard OpMapContext reply: the
// (server-pid, context-id) pair the name denotes. The pid is the
// receptionist's — the team's public identity.
func (s *Server) mapContextReply(res *Resolution) *proto.Message {
	ctx, ok := res.ResolvesToContext()
	if !ok {
		if res.Entry == nil {
			return ErrorReplyMsg(proto.ErrNotFound)
		}
		return ErrorReplyMsg(proto.ErrNotAContext)
	}
	reply := proto.NewReply(proto.ReplyOK)
	proto.SetMapContextReply(reply, uint32(s.PID()), uint32(ctx))
	return reply
}

// ErrorReplyMsg builds a failure reply message from an error.
func ErrorReplyMsg(err error) *proto.Message {
	return proto.NewReply(proto.ErrorReply(err))
}

// OkReply builds an empty success reply.
func OkReply() *proto.Message { return proto.NewReply(proto.ReplyOK) }

// Transact is the client side of one protocol exchange: send req to
// server, map failure replies to errors. Failure replies carrying
// name-fault details become NameErrors, telling the user which component
// failed at which server — even when the request was forwarded through a
// series of servers (§7).
func Transact(proc *kernel.Process, server kernel.PID, req *proto.Message) (*proto.Message, error) {
	reply, err := proc.Send(req, server)
	if err != nil {
		return nil, err
	}
	if err := ReplyToError(reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// ReplyToError maps a reply message to an error, decorating failures that
// carry name-fault details.
func ReplyToError(reply *proto.Message) error {
	err := proto.ReplyError(reply.Op)
	if err == nil {
		return nil
	}
	if idx, server, component, ok := proto.NameFault(reply); ok {
		return &NameError{
			Component: component,
			Index:     idx,
			Server:    kernel.PID(server),
			Err:       err,
		}
	}
	return err
}

// MapContext resolves a name to a fully-qualified context pair from the
// client side (§5.7).
func MapContext(proc *kernel.Process, pair ContextPair, name string) (ContextPair, error) {
	req := &proto.Message{Op: proto.OpMapContext}
	proto.SetCSName(req, uint32(pair.Ctx), name)
	reply, err := Transact(proc, pair.Server, req)
	if err != nil {
		return ContextPair{}, err
	}
	pid, ctx := proto.GetMapContextReply(reply)
	return ContextPair{Server: kernel.PID(pid), Ctx: ContextID(ctx)}, nil
}

// IsNotFound reports whether err denotes an unbound name.
func IsNotFound(err error) bool { return errors.Is(err, proto.ErrNotFound) }
