// Lease granting and callback invalidation (PROTOCOL.md §13).
//
// A lease-enabled prefix server (WithLease) answers OpMapContext requests
// that carry proto.FlagLeaseRequest directly — instead of forwarding the
// "[p]"-only request to the target server — stamping the reply with an
// absolute virtual-time expiry and remembering the requester's callback
// pid in the name's holder group (leasetab.Holders, which the ncache tier
// shares). When a binding is defined, deleted or modified, the server
// multicasts OpCacheInvalidate to that group and waits for every
// reachable holder to apply it (Holders.Invalidate), so the mutation's
// reply is a coherence barrier: holders the invalidation cannot reach
// (crashed or partitioned hosts) are bounded by their lease expiry
// instead — the provable staleness bound the trace checker enforces.
//
// Unknown prefixes are granted *negative* leases on the ReplyNotFound:
// the client answers repeated lookups of the absent name locally until
// the name is defined (which invalidates the negative holders) or the
// lease lapses.
package prefix

import (
	"time"

	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/leasetab"
	"repro/internal/metrics"
	"repro/internal/proto"
	"repro/internal/trace"
)

// WithLease enables lease granting with the given lease length. Zero
// (the default) disables the lease protocol entirely: lease-flagged
// requests are then served exactly like plain ones, and the server's
// behaviour is byte-identical to the pre-lease code.
func WithLease(d time.Duration) Option {
	return func(s *Server) { s.leaseLen = d }
}

// LeaseStats counts the server's lease activity.
type LeaseStats struct {
	// Grants counts positive lease-stamped MapContext replies.
	Grants uint64
	// Negatives counts negative (NotFound) lease stamps.
	Negatives uint64
	// Invalidations counts invalidation commits (per name changed, not
	// per holder notified).
	Invalidations uint64
	// HoldersNotified counts holder callbacks that acknowledged an
	// invalidation.
	HoldersNotified uint64
}

// LeaseStats returns a snapshot of the lease counters.
func (s *Server) LeaseStats() LeaseStats {
	return LeaseStats{
		Grants:          s.leaseCtr.grants.Load(),
		Negatives:       s.leaseCtr.negatives.Load(),
		Invalidations:   s.leaseCtr.invalidations.Load(),
		HoldersNotified: s.leaseCtr.notified.Load(),
	}
}

// leaseWanted reports whether msg is a grantable lease request: the
// server has leases enabled, the request asks for one, and it is a
// MapContext of the bare prefix (rest empty) — the only shape the server
// can answer from its own table without forwarding.
func (s *Server) leaseWanted(msg *proto.Message, name string, rest int) (kernel.PID, bool) {
	if s.leaseLen <= 0 || msg.Op != proto.OpMapContext || rest < len(name) {
		return kernel.NilPID, false
	}
	cb, ok := proto.LeaseRequest(msg)
	return kernel.PID(cb), ok
}

// stampLease stamps reply with a lease expiring leaseLen from p's
// current clock and registers the callback as a holder of pfx. negative
// marks a NotFound stamp.
func (s *Server) stampLease(p *kernel.Process, reply *proto.Message, pfx string, cb kernel.PID, negative bool) {
	now := p.Now()
	length := s.leaseLen
	if s.tuner != nil && !negative {
		// Auto-tuned per-name length (tuner.go); negative leases stay at
		// the floor — an absent name's definition is the churn event the
		// tuner has no estimator for yet.
		length = s.tuner.leaseFor(pfx, s.rates)
	}
	expire := now + length
	proto.SetLeaseGrant(reply, int64(expire))
	renewal := s.holders.Join(p.Kernel(), pfx, cb)
	if negative {
		s.leaseCtr.negatives.Add(1)
		s.leaseMetric(p, "prefix_lease_negatives_total").Inc()
		p.Kernel().Flight().Record(now, flight.KindLeaseGrant, pfx, s.proc.Name(), "negative")
	} else {
		s.leaseCtr.grants.Add(1)
		s.leaseMetric(p, "prefix_lease_grants_total").Inc()
		if renewal {
			s.rates.ObserveRenewal(pfx, now)
			p.Kernel().Flight().Record(now, flight.KindLeaseRenew, pfx, s.proc.Name(), "")
		} else {
			p.Kernel().Flight().Record(now, flight.KindLeaseGrant, pfx, s.proc.Name(), "")
		}
	}
	leasetab.Event(p, "grant", pfx, now, leasetab.Lease{Grant: now, Expire: expire})
}

// invalidateName is the invalidation commit for one name: it records the
// commit point in the trace (the instant the staleness invariant keys
// on), then multicasts OpCacheInvalidate to the name's holders and waits
// for every reachable holder to apply it. Called from the serving
// process after the binding mutation, before its reply — so when the
// mutating client's operation returns, every reachable cache has dropped
// the name.
func (s *Server) invalidateName(p *kernel.Process, name string) {
	// The redefinition is journaled and estimated whether or not leases
	// are on — churn analytics do not depend on the coherence protocol.
	s.rates.ObserveRedefinition(name, p.Now())
	s.tuner.observeRedefinition(name)
	p.Kernel().Flight().Record(p.Now(), flight.KindRedefine, name, s.proc.Name(), "")
	if s.leaseLen <= 0 {
		return
	}
	commit := p.Now()
	s.leaseCtr.invalidations.Add(1)
	s.leaseMetric(p, "prefix_lease_invalidations_total").Inc()
	if tr := p.Tracer(); tr != nil {
		tr.Event(p.CurrentSpan(), trace.KindLease, "invalidate "+name, commit, p.TraceID(), "")
	}
	if n := s.holders.Invalidate(p, name, int64(commit)); n > 0 {
		s.leaseCtr.notified.Add(uint64(n))
		s.leaseMetric(p, "prefix_lease_holders_notified_total").Add(uint64(n))
		s.rates.ObserveInvalidation(name, commit, n)
	}
}

// drainDirty invalidates every name a directory-record write marked
// dirty (modifyFromRecord runs inside the vio instance's write handler,
// which has no process context — the serve loop drains it before the
// write's reply).
func (s *Server) drainDirty(p *kernel.Process) {
	s.mu.Lock()
	dirty := s.dirty
	s.dirty = nil
	s.mu.Unlock()
	for _, name := range dirty {
		s.invalidateName(p, name)
	}
}

func (s *Server) leaseMetric(p *kernel.Process, name string) *metrics.Counter {
	return p.Kernel().Metrics().Counter(name, metrics.Labels{Server: s.proc.Name(), Class: "prefix"})
}
