// Lease-coherent name caching (PROTOCOL.md §13).
//
// The plain name cache (EnableNameCache) is the paper's §2.2 strawman:
// resolutions are cached forever and staleness surfaces as errors (or as
// periodic blind flushes in the workloads that bound it by hand). The
// lease cache replaces flush-by-timer with a coherence protocol: every
// cached resolution carries a virtual-time lease granted by the prefix
// server, expired entries revalidate instead of being flushed wholesale,
// absent names are cached negatively under the same leases, and the
// granting server invalidates holders by multicast callback when a
// binding changes — so a read can serve a dead mapping for at most the
// lease length, a bound the trace checker enforces (trace.CheckOptions
// LeaseBound).
package client

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/namestat"
	"repro/internal/nametree"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/trace"
)

// LeaseStats counts lease-cache behaviour.
type LeaseStats struct {
	// Hits served a prefixed request straight from a valid lease.
	Hits int
	// Misses walked the prefix server because no entry existed.
	Misses int
	// NegativeHits answered a lookup of a known-absent name locally,
	// with no IPC at all.
	NegativeHits int
	// Renewals revalidated an entry whose lease had expired.
	Renewals int
	// Invalidations counts callback invalidations applied.
	Invalidations int
	// Stale counts uses of a leased pair whose server was gone before
	// any invalidation arrived (crash inside the lease window).
	Stale int
}

// leaseEntry is one lease-stamped resolution. A negative entry records
// the absence of the name: lookups are answered locally with ErrNotFound
// until the lease expires or a define invalidates it.
type leaseEntry struct {
	pair     core.ContextPair
	grant    time.Duration // client-observed grant time
	expire   time.Duration // absolute virtual-time expiry
	negative bool
}

// leaseCache is a session's lease-coherent name cache, keyed on the
// shared radix index (PROTOCOL.md §14): the session goroutine, the
// callback process and the engine classifiers (LeasedRoute/LeaseExpiry)
// all read lock-free off the COW root, so a classifier probing tens of
// thousands of draws never serializes against invalidations. Counters
// are atomics (the callback process bumps Invalidations concurrently
// with the session goroutine's hit path), read through
// metrics.StableRead.
type leaseCache struct {
	entries *nametree.Tree[leaseEntry]
	ctr     leaseCounters
	// rates tracks client-observed per-prefix churn: stale-window widths
	// measured at the point of failure (PROTOCOL.md §15).
	rates *namestat.Rates
	// callback receives OpCacheInvalidate from granting servers; its pid
	// rides every lease request so servers know whom to call back.
	callback *kernel.Process
}

// leaseCounters is the lock-free backing store for LeaseStats.
type leaseCounters struct {
	hits          atomic.Uint64
	misses        atomic.Uint64
	negativeHits  atomic.Uint64
	renewals      atomic.Uint64
	invalidations atomic.Uint64
	stale         atomic.Uint64
}

func (c *leaseCounters) load() LeaseStats {
	return LeaseStats{
		Hits:          int(c.hits.Load()),
		Misses:        int(c.misses.Load()),
		NegativeHits:  int(c.negativeHits.Load()),
		Renewals:      int(c.renewals.Load()),
		Invalidations: int(c.invalidations.Load()),
		Stale:         int(c.stale.Load()),
	}
}

// lease lookup outcomes.
type leaseState int

const (
	leaseMiss leaseState = iota
	leaseHit
	leaseExpired
)

// EnableLeaseCache turns on lease-coherent caching of prefix
// resolutions: a callback process is spawned on the session's host to
// receive invalidations, and every prefix miss asks the prefix server
// for a lease-stamped direct reply. The granting server chooses the
// lease length (prefix.WithLease). The lease cache supersedes the plain
// name cache for prefixed names when both are enabled.
func (s *Session) EnableLeaseCache() error {
	if s.leases != nil {
		return nil
	}
	lc := &leaseCache{entries: nametree.New[leaseEntry](), rates: namestat.NewRates(0)}
	cb, err := s.proc.Host().Spawn(s.proc.Name()+"/lease-cb", func(p *kernel.Process) {
		lc.serveCallbacks(p)
	})
	if err != nil {
		return err
	}
	lc.callback = cb
	s.leases = lc
	return nil
}

// DisableLeaseCache turns the lease cache off and destroys its callback
// process (leaving any group memberships via the kernel's destroy path,
// so granting servers stop waiting on it).
func (s *Session) DisableLeaseCache() {
	if s.leases == nil {
		return
	}
	s.leases.callback.Destroy()
	s.leases = nil
}

// LeaseCacheStats returns a torn-read-resistant snapshot of the
// lease-cache counters.
func (s *Session) LeaseCacheStats() LeaseStats {
	if s.leases == nil {
		return LeaseStats{}
	}
	return metrics.StableRead(s.leases.ctr.load)
}

// LeaseNameRates returns the session's client-side per-prefix churn
// estimates (stale-window widths observed at failure), sorted by name.
func (s *Session) LeaseNameRates() []namestat.RateItem {
	if s.leases == nil {
		return nil
	}
	return s.leases.rates.Snapshot()
}

// LeaseCallback returns the pid of the session's invalidation-callback
// process (NilPID when the lease cache is off).
func (s *Session) LeaseCallback() kernel.PID {
	if s.leases == nil {
		return kernel.NilPID
	}
	return s.leases.callback.PID()
}

// LeasedRoute reports where a prefixed name would be routed at virtual
// time `at` if the lease cache holds a valid positive lease for its
// prefix: the leased (server, context) pair and whether the lease is
// valid. Like CachedRoute it performs no IPC, charges no virtual time,
// and mutates nothing — it is the probe the sharded workload drivers'
// classifiers use, evaluated at the virtual time the operation will
// actually run (pre-think clock plus think time) so classifier and
// operation agree on expiry exactly.
func (s *Session) LeasedRoute(name string, at time.Duration) (core.ContextPair, bool) {
	if s.leases == nil {
		return core.ContextPair{}, false
	}
	pfx, _, err := cacheKey(name)
	if err != nil {
		return core.ContextPair{}, false
	}
	e, ok := s.leases.entries.Get(pfx)
	if !ok || e.negative || at >= e.expire {
		return core.ContextPair{}, false
	}
	return e.pair, true
}

// LeaseExpiry returns the absolute virtual-time expiry of the session's
// cached lease on name's prefix — positive or negative — if one exists.
// Like LeasedRoute it is a pure probe: no IPC, no virtual time, no
// mutation.
func (s *Session) LeaseExpiry(name string) (time.Duration, bool) {
	if s.leases == nil {
		return 0, false
	}
	pfx, _, err := cacheKey(name)
	if err != nil {
		return 0, false
	}
	e, ok := s.leases.entries.Get(pfx)
	if !ok {
		return 0, false
	}
	return e.expire, true
}

// serveCallbacks is the callback process body: it applies
// OpCacheInvalidate messages to the cache under its mutex and replies,
// which is what lets a granting server's SendGroupAll treat the
// invalidation as a barrier — when the define/delete returns, this
// holder has already dropped the entry.
func (lc *leaseCache) serveCallbacks(p *kernel.Process) {
	for {
		msg, from, err := p.Receive()
		if err != nil {
			return
		}
		reply := &proto.Message{Op: proto.ReplyOK}
		if msg.Op == proto.OpCacheInvalidate {
			name, _, derr := proto.CacheInvalidate(msg)
			if derr != nil {
				reply.Op = proto.ReplyBadArgs
			} else {
				lc.entries.Delete(name)
				lc.ctr.invalidations.Add(1)
				p.Kernel().Flight().Record(p.Now(), flight.KindInvalidate, name, p.Name(), "callback")
				if tr := p.Kernel().Tracer(); tr != nil {
					tr.Event(p.PendingSpan(from), trace.KindLease, "callback "+name, p.Now(), p.TraceID(), "")
				}
				p.Kernel().Metrics().Counter("client_lease_invalidations_total",
					metrics.Labels{Server: p.Name(), Class: "client"}).Inc()
			}
		} else {
			reply.Op = proto.ReplyIllegalRequest
		}
		if p.Reply(reply, from) != nil {
			return
		}
	}
}

// lookup classifies the cache's answer for pfx at virtual time now,
// dropping entries whose lease has lapsed (they are either re-granted by
// the revalidation that follows or gone).
func (lc *leaseCache) lookup(pfx string, now time.Duration) (leaseEntry, leaseState) {
	e, ok := lc.entries.Get(pfx)
	if !ok {
		return leaseEntry{}, leaseMiss
	}
	if now >= e.expire {
		lc.entries.Delete(pfx)
		return e, leaseExpired
	}
	return e, leaseHit
}

func (lc *leaseCache) store(pfx string, e leaseEntry) {
	lc.entries.Insert(pfx, e)
}

func (lc *leaseCache) drop(pfx string) {
	lc.entries.Delete(pfx)
}

// leaseMetric resolves a lease counter labelled with this session's
// process name and the client tier.
func (s *Session) leaseMetric(name string) *metrics.Counter {
	return s.proc.Kernel().Metrics().Counter(name, metrics.Labels{Server: s.proc.Name(), Class: "client"})
}

// leaseEvent records a zero-length lease span carrying the entry's stamp.
func (s *Session) leaseEvent(event, pfx string, at time.Duration, e leaseEntry) {
	tr := s.proc.Kernel().Tracer()
	if tr == nil {
		return
	}
	sp := tr.Event(s.proc.CurrentSpan(), trace.KindLease, event+" "+pfx, at, s.proc.TraceID(), "")
	tr.SetLease(sp, e.grant, e.expire)
}

// sendLeased routes a prefixed request through the lease cache: a valid
// positive lease sends straight to the leased pair, a valid negative
// lease answers locally, and anything else revalidates through the
// prefix server with a lease request. The validity check happens at the
// clock's value on entry — before any compute is charged — which is the
// same instant LeasedRoute probes, so the engine classifiers predict
// this routing exactly.
func (s *Session) sendLeased(name string, req *proto.Message, mayRetry bool) (*proto.Message, error) {
	pfx, rest, err := cacheKey(name)
	if err != nil {
		return nil, fmt.Errorf("%q: %w", name, err)
	}
	now := s.proc.Now()
	entry, state := s.leases.lookup(pfx, now)

	if state == leaseHit && entry.negative {
		// The name is known absent: answer locally. The stub still costs
		// its constant — the library ran — but no message leaves the host.
		s.leases.ctr.negativeHits.Add(1)
		s.leaseMetric("client_lease_negative_hits_total").Inc()
		s.leaseEvent("negative-hit", pfx, now, entry)
		s.proc.ChargeCompute(s.proc.Kernel().Model().ClientStubCost)
		return nil, fmt.Errorf("%q: %w", name, proto.ErrNotFound)
	}

	if state == leaseHit {
		s.leases.ctr.hits.Add(1)
		s.leaseMetric("client_lease_hits_total").Inc()
		s.leaseEvent("hit", pfx, now, entry)
	} else {
		// Miss or lapsed lease: revalidate through the prefix server,
		// asking for a fresh lease.
		if state == leaseExpired {
			s.leases.ctr.renewals.Add(1)
			s.leaseMetric("client_lease_renewals_total").Inc()
			s.leaseEvent("expired", pfx, now, entry)
			s.proc.Kernel().Flight().Record(now, flight.KindLeaseRenew, pfx, s.proc.Name(), "expired")
		} else {
			s.leases.ctr.misses.Add(1)
			s.leaseMetric("client_lease_misses_total").Inc()
		}
		mreq := &proto.Message{Op: proto.OpMapContext}
		proto.SetCSName(mreq, uint32(core.CtxDefault), prefix.Quote(pfx))
		proto.SetLeaseRequest(mreq, uint32(s.leases.callback.PID()))
		s.proc.ChargeCompute(s.proc.Kernel().Model().ClientStubCost)
		mreply, err := s.proc.Send(mreq, s.prefixServer)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", name, err)
		}
		granted := s.proc.Now()
		if err := s.replyErr(mreply); err != nil {
			// A stamped NotFound is a negative lease: cache the absence.
			if expire, ok := proto.LeaseGrant(mreply); ok && mreply.Op == proto.ReplyNotFound {
				ne := leaseEntry{grant: granted, expire: time.Duration(expire), negative: true}
				s.leases.store(pfx, ne)
				s.leaseEvent("grant", pfx, granted, ne)
			}
			return nil, fmt.Errorf("%q: %w", name, err)
		}
		pid, ctx := proto.GetMapContextReply(mreply)
		entry = leaseEntry{
			pair:  core.ContextPair{Server: kernel.PID(pid), Ctx: core.ContextID(ctx)},
			grant: granted,
		}
		if expire, ok := proto.LeaseGrant(mreply); ok {
			entry.expire = time.Duration(expire)
			s.leases.store(pfx, entry)
			if state == leaseExpired {
				s.leaseEvent("renew", pfx, granted, entry)
			} else {
				s.leaseEvent("grant", pfx, granted, entry)
			}
		}
		// An unstamped reply (a prefix server without lease support) is
		// used for this request but not cached: without a callback
		// registration, caching it would reintroduce unbounded staleness.
	}

	proto.SetCSName(req, uint32(entry.pair.Ctx), name[rest:])
	s.lastRouted = entry.pair.Server
	s.proc.ChargeCompute(s.proc.Kernel().Model().ClientStubCost)
	reply, err := s.proc.Send(req, entry.pair.Server)
	if err != nil {
		// The leased server died inside the lease window, before any
		// invalidation could be delivered. Drop the lease and revalidate
		// once — bounded staleness, visible as a Stale count, journaled
		// as a failover, and measured: the window's width (failure time
		// minus grant) feeds the client's churn estimator (§15).
		s.leases.ctr.stale.Add(1)
		s.leaseMetric("client_lease_stale_total").Inc()
		failedAt := s.proc.Now()
		s.leases.rates.ObserveStaleWindow(pfx, failedAt-entry.grant)
		s.proc.Kernel().Flight().Record(failedAt, flight.KindFailover, pfx, s.proc.Name(), "stale")
		s.leases.drop(pfx)
		if mayRetry {
			return s.sendLeased(name, req, false)
		}
		return nil, fmt.Errorf("%q (stale leased resolution): %w", name, err)
	}
	if err := s.replyErr(reply); err != nil {
		return nil, fmt.Errorf("%q: %w", name, err)
	}
	return reply, nil
}
