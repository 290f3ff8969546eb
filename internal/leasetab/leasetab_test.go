package leasetab

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/proto"
)

// TestTableSemantics pins the four operations the lease caches use:
// Put on a present key overwrites, Delete of an absent key is a no-op,
// and Len counts keys, not Puts.
func TestTableSemantics(t *testing.T) {
	tb := New[int]()
	if _, ok := tb.Get("home"); ok || tb.Len() != 0 {
		t.Fatalf("new table: Get found a key or Len=%d", tb.Len())
	}
	tb.Put("home", 1)
	tb.Put("bin", 2)
	tb.Put("home", 3)
	if v, ok := tb.Get("home"); !ok || v != 3 {
		t.Fatalf("Get(home) = %d, %v after overwrite, want 3, true", v, ok)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d after overwrite, want 2", tb.Len())
	}
	tb.Delete("nosuch")
	if tb.Len() != 2 {
		t.Fatalf("Len = %d after deleting an absent key, want 2", tb.Len())
	}
	tb.Delete("home")
	if _, ok := tb.Get("home"); ok || tb.Len() != 1 {
		t.Fatalf("deleted key still present or Len=%d, want 1", tb.Len())
	}
	if _, ok := tb.Get("hom"); ok {
		t.Fatal("Get matched a proper prefix of a key: the table is exact-key")
	}
	tb.Put("home", 4)
	if v, ok := tb.Get("home"); !ok || v != 4 || tb.Len() != 2 {
		t.Fatalf("re-inserted key: Get = %d, %v, Len=%d, want 4, true, 2", v, ok, tb.Len())
	}
}

// TestLeaseTable10e5ZeroAlloc is the allocation pin for the lease-cache
// hot paths at population scale: with 10⁵ leases held, a hit (Get, and
// Lookup of a valid lease), a renewal that replaces a present entry
// (Put) and an expiry followed by a re-grant (Delete then Put, and a
// Lookup that drops a lapsed lease then Put of the same key) perform
// zero heap allocations. Skipped under -race (the detector's instrumentation
// allocates).
func TestLeaseTable10e5ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	lease := func(i int, expire time.Duration) Lease {
		return Lease{Pair: core.ContextPair{Server: kernel.PID(i)}, Expire: expire}
	}
	names := make([]string, 100_000)
	tb := New[Lease]()
	for i := range names {
		names[i] = fmt.Sprintf("storage.home.n%d", i)
		tb.Put(names[i], lease(i, time.Duration(i)+1))
	}
	for _, tc := range []struct {
		label string
		op    func(string, int)
	}{
		{"Get", func(k string, i int) {
			if _, ok := tb.Get(k); !ok {
				t.Fatalf("miss on %q", k)
			}
		}},
		{"overwrite Put", func(k string, i int) { tb.Put(k, lease(i, time.Duration(i)+1)) }},
		{"Delete then Put", func(k string, i int) {
			tb.Delete(k)
			tb.Put(k, lease(i, time.Duration(i)+2))
		}},
		{"Lookup hit", func(k string, i int) {
			if _, st := Lookup(tb, k, 0); st != Hit {
				t.Fatalf("Lookup(%q) = %v, want Hit", k, st)
			}
		}},
		{"lapsed Lookup then Put", func(k string, i int) {
			if _, st := Lookup(tb, k, math.MaxInt64); st != Lapsed {
				t.Fatalf("Lookup(%q) = %v, want Lapsed", k, st)
			}
			tb.Put(k, lease(i, time.Duration(i)+3))
		}},
	} {
		i := 0
		allocs := testing.AllocsPerRun(10_000, func() {
			tc.op(names[(i*7919)%len(names)], i)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v allocs/op at 10^5 entries, want 0", tc.label, allocs)
		}
	}
	if tb.Len() != len(names) {
		t.Fatalf("Len = %d after the pinned ops, want %d", tb.Len(), len(names))
	}
}

// TestLookupExpiryBoundary pins the one expiry rule both lease caches
// apply: a lease is valid strictly before its expiry instant, and at
// now == Expire it has lapsed — Lookup returns it as Lapsed (so the
// caller can report its stamp) and deletes it, so the next Lookup
// misses.
func TestLookupExpiryBoundary(t *testing.T) {
	tb := New[Lease]()
	held := Lease{Pair: core.ContextPair{Server: 7, Ctx: 3}, Grant: 10, Expire: 100}
	tb.Put("home", held)
	if l, st := Lookup(tb, "home", 99); st != Hit || l != held {
		t.Fatalf("Lookup at 99 = %+v, %v; want the lease, Hit", l, st)
	}
	if l, st := Lookup(tb, "home", 100); st != Lapsed || l != held {
		t.Fatalf("Lookup at Expire = %+v, %v; want the lease, Lapsed", l, st)
	}
	if tb.Len() != 0 {
		t.Fatal("a lapsed lease was not deleted")
	}
	if _, st := Lookup(tb, "home", 0); st != Miss {
		t.Fatalf("Lookup after lapse = %v, want Miss", st)
	}
	if _, st := Lookup(tb, "nosuch", 0); st != Miss {
		t.Fatalf("Lookup of an absent name = %v, want Miss", st)
	}
}

// TestFromReply pins the reply decoder: a stamped OK is a positive
// lease on the reply's pair, a stamped NotFound a negative lease, and
// an unstamped reply or a stamped reply of any other op is not
// cacheable — though an unstamped OK still yields its pair for one use.
func TestFromReply(t *testing.T) {
	okReply := func() *proto.Message {
		m := proto.NewReply(proto.ReplyOK)
		proto.SetMapContextReply(m, 7, 3)
		return m
	}
	stamp := func(m *proto.Message) *proto.Message { proto.SetLeaseGrant(m, 500); return m }
	pair := core.ContextPair{Server: 7, Ctx: 3}

	if l, ok := FromReply(stamp(okReply()), 20); !ok || l != (Lease{Pair: pair, Grant: 20, Expire: 500}) {
		t.Fatalf("stamped OK = %+v, %v", l, ok)
	}
	if l, ok := FromReply(stamp(proto.NewReply(proto.ReplyNotFound)), 20); !ok || l != (Lease{Grant: 20, Expire: 500, Negative: true}) {
		t.Fatalf("stamped NotFound = %+v, %v", l, ok)
	}
	if l, ok := FromReply(okReply(), 20); ok || l.Pair != pair {
		t.Fatalf("unstamped OK = %+v, %v; want its pair, not cacheable", l, ok)
	}
	if _, ok := FromReply(proto.NewReply(proto.ReplyNotFound), 20); ok {
		t.Fatal("unstamped NotFound is cacheable")
	}
	for _, op := range []proto.Code{proto.ReplyIllegalRequest, proto.ReplyTimeout, proto.ReplyNotLeader} {
		if _, ok := FromReply(stamp(proto.NewReply(op)), 20); ok {
			t.Fatalf("stamped %v is cacheable", op)
		}
	}
}
