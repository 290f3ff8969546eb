// Package ncache implements the shared intermediate name-cache tier
// (PROTOCOL.md §13): a caching front for a lease-granting context prefix
// server, normally co-resident with the prefix host, that many client
// hosts share. Lease-flagged bare-prefix MapContext requests are served
// from the tier's own lease table — one upstream lease amortized across
// every client behind the tier — and every other request is forwarded to
// the prefix server unchanged, so the tier is transparent to the plain
// protocol: clients simply address the tier as their prefix server.
//
// Coherence is hierarchical. The tier holds upstream leases through a
// dedicated callback process and re-grants sub-leases to its clients,
// each expiring no later than the backing upstream lease, so a client's
// staleness bound never exceeds the granting server's. An invalidation
// from the prefix server drops the tier entry and propagates to the
// tier's own holder groups through the same all-reply barrier the
// prefix server runs (leasetab.Holders) before the tier acknowledges —
// the prefix server's define/delete therefore still returns only after
// every reachable cache in the hierarchy, shared or per-client, has
// dropped the name. The callback process is deliberately distinct from
// the serving process: the serving process may be blocked inside an
// upstream Send while the prefix server waits on the tier's callback,
// and a single-process tier would deadlock that barrier.
package ncache

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/kernel"
	"repro/internal/leasetab"
	"repro/internal/metrics"
	"repro/internal/namestat"
	"repro/internal/prefix"
	"repro/internal/proto"
	"repro/internal/trace"
)

// Stats counts the tier's serving activity.
type Stats struct {
	// Hits served a lease request from a valid tier entry.
	Hits uint64
	// Misses walked the upstream prefix server for a fresh lease.
	Misses uint64
	// NegativeHits answered a known-absent name from a negative entry.
	NegativeHits uint64
	// Renewals are misses that replaced a lapsed entry.
	Renewals uint64
	// Invalidations counts upstream callbacks applied.
	Invalidations uint64
	// Propagated counts downstream holders that acknowledged a
	// propagated invalidation.
	Propagated uint64
	// Forwards counts non-lease requests passed through to upstream.
	Forwards uint64
}

type counters struct {
	hits, misses, negHits, renewals atomic.Uint64
	invalidations, propagated, fwds atomic.Uint64
}

// Tier is one shared intermediate name cache.
type Tier struct {
	name     string
	proc     *kernel.Process
	callback *kernel.Process
	upstream kernel.PID
	leaseLen time.Duration

	// entries holds the tier's upstream leases, shared by the serving
	// process and the callback process; holders registers the
	// downstream callback pids holding a sub-lease on each name. Both
	// are internal/leasetab's, the same as the client cache's and the
	// prefix server's.
	entries *leasetab.Table[leasetab.Lease]
	holders *leasetab.Holders

	ctr counters

	// topk is the tier's always-on hot-name sketch (PROTOCOL.md §15):
	// which prefixes this tier is actually absorbing load for.
	topk *namestat.TopK
}

// Start spawns a cache tier on host, fronting the upstream prefix
// server. leaseLen caps the sub-leases the tier grants downstream; the
// effective sub-lease is the minimum of leaseLen and the remaining
// upstream lease, so the hierarchy never widens the staleness bound.
func Start(host *kernel.Host, name string, upstream kernel.PID, leaseLen time.Duration) (*Tier, error) {
	if leaseLen <= 0 {
		return nil, fmt.Errorf("ncache: sub-lease length must be positive")
	}
	t := &Tier{
		name:     name,
		upstream: upstream,
		leaseLen: leaseLen,
		entries:  leasetab.New[leasetab.Lease](),
		holders:  leasetab.NewHolders(),
		topk:     namestat.NewTopK(32),
	}
	cb, err := host.Spawn(name+"/upstream-cb", t.serveUpstream)
	if err != nil {
		return nil, err
	}
	t.callback = cb
	main, err := host.Spawn(name, t.serve)
	if err != nil {
		cb.Destroy()
		return nil, err
	}
	t.proc = main
	return t, nil
}

// PID returns the tier's serving pid — what clients use as their prefix
// server address.
func (t *Tier) PID() kernel.PID { return t.proc.PID() }

// Stats returns a snapshot of the tier counters.
func (t *Tier) Stats() Stats {
	return Stats{
		Hits:          t.ctr.hits.Load(),
		Misses:        t.ctr.misses.Load(),
		NegativeHits:  t.ctr.negHits.Load(),
		Renewals:      t.ctr.renewals.Load(),
		Invalidations: t.ctr.invalidations.Load(),
		Propagated:    t.ctr.propagated.Load(),
		Forwards:      t.ctr.fwds.Load(),
	}
}

// TopNames returns the tier's hot-name sketch: the prefixes this tier
// has served the most lease requests for, by estimated count.
func (t *Tier) TopNames() []namestat.Item {
	return t.topk.Snapshot()
}

// serve is the tier's main loop.
func (t *Tier) serve(p *kernel.Process) {
	for {
		msg, from, err := p.Receive()
		if err != nil {
			return
		}
		t.serveOne(p, msg, from)
	}
}

// serveOne handles one request: lease-flagged bare-prefix MapContexts
// are served from the tier table, everything else is forwarded upstream
// (the reply then flows directly from the prefix server to the client,
// the standard forwarding convention).
func (t *Tier) serveOne(p *kernel.Process, msg *proto.Message, from kernel.PID) {
	tr := p.Tracer()
	var sp trace.SpanID
	if tr != nil {
		sp = tr.Start(p.PendingSpan(from), trace.KindServe, msg.Op.String(), p.Now(), p.TraceID())
		p.SetCurrentSpan(sp)
	}
	p.ChargeCompute(p.Kernel().Model().ServerDispatchCost)

	pfx, cb, ok := t.leaseWanted(msg)
	if !ok {
		t.ctr.fwds.Add(1)
		t.metric(p, "ncache_forwards_total").Inc()
		_ = core.ForwardServed(p, msg, from, t.upstream)
		if tr != nil {
			p.SetCurrentSpan(0)
		}
		return
	}

	reply := t.serveLease(p, pfx, cb)
	if tr != nil {
		class := ""
		if reply.Op != proto.ReplyOK {
			class = reply.Op.String()
		}
		tr.Fail(sp, p.Now(), class)
	}
	_ = p.Reply(reply, from)
	if tr != nil {
		p.SetCurrentSpan(0)
	}
}

// leaseWanted reports whether msg is a lease request the tier can serve
// from its table: a MapContext of a bare prefix carrying a lease
// request.
func (t *Tier) leaseWanted(msg *proto.Message) (string, kernel.PID, bool) {
	if msg.Op != proto.OpMapContext {
		return "", kernel.NilPID, false
	}
	cb, ok := proto.LeaseRequest(msg)
	if !ok {
		return "", kernel.NilPID, false
	}
	name, index, err := proto.CSName(msg)
	if err != nil || index >= len(name) || name[index] != prefix.Marker {
		return "", kernel.NilPID, false
	}
	pfx, rest, err := prefix.Parse(name, index)
	if err != nil || rest < len(name) {
		return "", kernel.NilPID, false
	}
	return pfx, kernel.PID(cb), true
}

// serveLease answers one lease request, from the tier table on a hit or
// through the upstream server on a miss, re-granting a sub-lease bounded
// by the backing upstream lease.
func (t *Tier) serveLease(p *kernel.Process, pfx string, cb kernel.PID) *proto.Message {
	p.ChargeCompute(p.Kernel().Model().PrefixRewriteCost)
	now := p.Now()
	t.topk.Observe(pfx)
	e, state := leasetab.Lookup(t.entries, pfx, now)
	if state == leasetab.Lapsed {
		t.ctr.renewals.Add(1)
	}

	if state == leasetab.Hit {
		if e.Negative {
			t.ctr.negHits.Add(1)
			t.metric(p, "ncache_negative_hits_total").Inc()
			leasetab.Event(p, "negative-hit", pfx, now, e)
			reply := core.ErrorReplyMsg(fmt.Errorf("prefix %q: %w", pfx, proto.ErrNotFound))
			t.subGrant(p, reply, pfx, cb, now, e)
			return reply
		}
		t.ctr.hits.Add(1)
		t.metric(p, "ncache_hits_total").Inc()
		leasetab.Event(p, "hit", pfx, now, e)
		reply := core.OkReply()
		proto.SetMapContextReply(reply, uint32(e.Pair.Server), uint32(e.Pair.Ctx))
		t.subGrant(p, reply, pfx, cb, now, e)
		return reply
	}

	// Miss (or lapsed entry): take a fresh upstream lease in the tier's
	// own name — the upstream callback is the tier's, not the client's —
	// then relay the reply downstream under a sub-lease.
	t.ctr.misses.Add(1)
	t.metric(p, "ncache_misses_total").Inc()
	mreq := &proto.Message{Op: proto.OpMapContext}
	proto.SetCSName(mreq, uint32(core.CtxDefault), prefix.Quote(pfx))
	proto.SetLeaseRequest(mreq, uint32(t.callback.PID()))
	mreply, err := p.Send(mreq, t.upstream)
	if err != nil {
		return core.ErrorReplyMsg(fmt.Errorf("prefix %q: %w", pfx, err))
	}
	granted := p.Now()
	ne, cacheable := leasetab.FromReply(mreply, granted)
	if !cacheable {
		// An upstream without lease support, or a stamped reply that is
		// neither a pair nor an absence: relay it as-is — the client
		// will use it without caching, and the tier caches nothing it
		// cannot be called back about.
		return mreply
	}
	t.entries.Put(pfx, ne)
	leasetab.Event(p, "grant", pfx, granted, ne)
	t.subGrant(p, mreply, pfx, cb, granted, ne)
	return mreply
}

// subGrant stamps reply with a sub-lease expiring at the earlier of the
// tier's sub-lease length and the backing upstream lease, and registers
// the downstream callback as a holder.
func (t *Tier) subGrant(p *kernel.Process, reply *proto.Message, pfx string, cb kernel.PID, now time.Duration, e leasetab.Lease) {
	sub := now + t.leaseLen
	if e.Expire < sub {
		sub = e.Expire
	}
	proto.SetLeaseGrant(reply, int64(sub))
	t.holders.Join(p.Kernel(), pfx, cb)
}

// serveUpstream is the callback process body: an OpCacheInvalidate from
// the upstream server drops the tier entry and propagates to the tier's
// own holders — waiting for every reachable one — before acknowledging,
// so the upstream barrier covers the whole subtree.
func (t *Tier) serveUpstream(p *kernel.Process) {
	for {
		msg, from, err := p.Receive()
		if err != nil {
			return
		}
		tr := p.Tracer()
		var sp trace.SpanID
		if tr != nil {
			sp = tr.Start(p.PendingSpan(from), trace.KindServe, msg.Op.String(), p.Now(), p.TraceID())
			p.SetCurrentSpan(sp)
		}
		reply := &proto.Message{Op: proto.ReplyOK}
		if msg.Op == proto.OpCacheInvalidate {
			name, commit, derr := proto.CacheInvalidate(msg)
			if derr != nil {
				reply.Op = proto.ReplyBadArgs
			} else {
				t.entries.Delete(name)
				t.ctr.invalidations.Add(1)
				t.metric(p, "ncache_invalidations_total").Inc()
				p.Kernel().Flight().Record(p.Now(), flight.KindInvalidate, name, t.name, "tier")
				if tr != nil {
					tr.Event(sp, trace.KindLease, "callback "+name, p.Now(), p.TraceID(), "")
				}
				if n := t.holders.Invalidate(p, name, commit); n > 0 {
					t.ctr.propagated.Add(uint64(n))
					t.metric(p, "ncache_propagated_total").Add(uint64(n))
				}
			}
		} else {
			reply.Op = proto.ReplyIllegalRequest
		}
		if tr != nil {
			class := ""
			if reply.Op != proto.ReplyOK {
				class = reply.Op.String()
			}
			tr.Fail(sp, p.Now(), class)
			p.SetCurrentSpan(0)
		}
		if p.Reply(reply, from) != nil {
			return
		}
	}
}

// metric resolves a tier counter labelled with the tier process and tier
// class.
func (t *Tier) metric(p *kernel.Process, name string) *metrics.Counter {
	return p.Kernel().Metrics().Counter(name, metrics.Labels{Server: t.name, Class: "tier"})
}
