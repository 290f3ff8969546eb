// Package leasetab is the lease protocol's shared state (PROTOCOL.md
// §13), used by every party to it.
//
// The holding side — the client session's lease cache
// (internal/client) and the shared ncache tier (internal/ncache) —
// keeps Lease entries in a Table keyed by exact prefix name, decodes
// lease-stamped MapContext replies with FromReply, applies the one
// expiry rule in Lookup, and records its lease trace spans with Event.
//
// The granting side — the prefix server (internal/prefix) and the tier
// again, which re-grants sub-leases downstream — registers callback pids
// in Holders, one kernel group per name, and runs the OpCacheInvalidate
// barrier through it when a name changes.
//
// A Table is a Go map behind a mutex, not the copy-on-write radix index
// (internal/nametree): the caches look entries up, replace them and drop
// them by their full name only, never by longest prefix, ordered walk or
// reverse lookup. Each method holds the lock for one map operation, so a
// cache's callback process can drop an entry while the session reads it
// and the engine's classifiers probe it, and each of them sees the entry
// either before or after the drop. Get, Lookup, a Put that replaces a
// present key and a Put that re-inserts a key just deleted perform no
// heap allocation.
package leasetab

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
	"repro/internal/trace"
)

// Table maps exact string keys to values of type V. The zero value is
// not usable; call New.
type Table[V any] struct {
	mu sync.Mutex
	m  map[string]V
}

// New returns an empty table.
func New[V any]() *Table[V] {
	return &Table[V]{m: make(map[string]V)}
}

// Get returns the value stored under key and whether there was one.
func (t *Table[V]) Get(key string) (V, bool) {
	t.mu.Lock()
	v, ok := t.m[key]
	t.mu.Unlock()
	return v, ok
}

// Put stores v under key, replacing any value already there.
func (t *Table[V]) Put(key string, v V) {
	t.mu.Lock()
	t.m[key] = v
	t.mu.Unlock()
}

// Delete removes key. Deleting an absent key does nothing.
func (t *Table[V]) Delete(key string) {
	t.mu.Lock()
	delete(t.m, key)
	t.mu.Unlock()
}

// Len returns the number of keys stored.
func (t *Table[V]) Len() int {
	t.mu.Lock()
	n := len(t.m)
	t.mu.Unlock()
	return n
}

// Lease is one lease-stamped resolution held by a cache. A negative
// lease records the absence of the name: lookups are answered locally
// with ErrNotFound until the lease lapses or a define invalidates it.
type Lease struct {
	Pair     core.ContextPair
	Grant    time.Duration // holder-observed grant time
	Expire   time.Duration // absolute virtual-time expiry
	Negative bool
}

// ValidAt reports whether the lease is valid at virtual time now. A
// lease lapses at its expiry instant.
func (l Lease) ValidAt(now time.Duration) bool { return now < l.Expire }

// State classifies a Lookup.
type State int

const (
	// Miss: no lease is held for the name.
	Miss State = iota
	// Hit: the lease is valid at the lookup instant.
	Hit
	// Lapsed: the lease had expired; Lookup dropped it, and the caller
	// revalidates (a renewal).
	Lapsed
)

// Lookup classifies the lease held under name at virtual time now. A
// lease no longer ValidAt now is deleted and returned as Lapsed, so the
// caller can still report its stamp.
func Lookup(t *Table[Lease], name string, now time.Duration) (Lease, State) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.m[name]
	if !ok {
		return Lease{}, Miss
	}
	if !l.ValidAt(now) {
		delete(t.m, name)
		return l, Lapsed
	}
	return l, Hit
}

// FromReply decodes a bare-prefix MapContext reply received at granted
// into the lease it carries: an OK reply gives the (server, context)
// pair, a NotFound a negative lease. ok is false for a reply without a
// lease stamp and for any other op; such a reply is not cacheable,
// because no callback registration backs it. The pair is decoded from
// every OK reply, stamped or not, so the caller can still use an
// unstamped answer once.
func FromReply(reply *proto.Message, granted time.Duration) (l Lease, ok bool) {
	l.Grant = granted
	switch reply.Op {
	case proto.ReplyOK:
		pid, ctx := proto.GetMapContextReply(reply)
		l.Pair = core.ContextPair{Server: kernel.PID(pid), Ctx: core.ContextID(ctx)}
	case proto.ReplyNotFound:
		l.Negative = true
	default:
		return l, false
	}
	expire, stamped := proto.LeaseGrant(reply)
	l.Expire = time.Duration(expire)
	return l, stamped
}

// Event records a zero-length lease span "event name" at virtual time at
// under p's current span, carrying l's grant and expiry stamp. It does
// nothing when no tracer is installed.
func Event(p *kernel.Process, event, name string, at time.Duration, l Lease) {
	tr := p.Tracer()
	if tr == nil {
		return
	}
	sp := tr.Event(p.CurrentSpan(), trace.KindLease, event+" "+name, at, p.TraceID(), "")
	tr.SetLease(sp, l.Grant, l.Expire)
}

// Holders is a granting server's registry of lease holders: one kernel
// group of callback pids per name, created at the name's first grant and
// kept for the server's lifetime, whether or not the name is bound. A
// negative holder of an absent name is therefore in the same group the
// name's define later invalidates, and a delete, redefine or table
// install never moves a group. The zero value is not usable; call
// NewHolders.
type Holders struct {
	mu     sync.Mutex
	groups map[string]kernel.PID
}

// NewHolders returns an empty registry.
func NewHolders() *Holders {
	return &Holders{groups: make(map[string]kernel.PID)}
}

// Join adds cb to name's holder group, creating the group on first use,
// and reports whether the group already existed: some holder leased the
// name before, so this grant re-validates — the closest the granting
// side comes to seeing a renewal. Membership is idempotent and survives
// invalidations; destroyed processes leave every group via the kernel's
// destroy path.
func (h *Holders) Join(k *kernel.Kernel, name string, cb kernel.PID) (existed bool) {
	h.mu.Lock()
	gid, existed := h.groups[name]
	if !existed {
		gid = k.CreateGroup()
		h.groups[name] = gid
	}
	h.mu.Unlock()
	// JoinGroup fails only for an unknown group, and the kernel never
	// removes one CreateGroup made.
	_ = k.JoinGroup(gid, cb)
	return existed
}

// Invalidate is the callback barrier: it multicasts OpCacheInvalidate of
// name, stamped with the commit instant, to name's holder group and
// waits for every reachable holder to apply it (kernel SendGroupAll).
// It returns the number of holders that acknowledged; holders it cannot
// reach are bounded by their lease expiry instead. A name nobody has
// leased has no group, and nothing is sent.
func (h *Holders) Invalidate(p *kernel.Process, name string, commit int64) int {
	h.mu.Lock()
	gid, ok := h.groups[name]
	h.mu.Unlock()
	if !ok {
		return 0
	}
	msg := &proto.Message{}
	proto.SetCacheInvalidate(msg, name, commit)
	n, err := p.SendGroupAll(msg, gid)
	if err != nil {
		return 0 // an unknown group: nobody could have applied it
	}
	return n
}
