package leasetab

import (
	"fmt"
	"testing"
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
// hot paths at population scale: with 10⁵ leases held, a hit (Get), a
// renewal that replaces a present entry (Put) and an expiry followed by
// a re-grant (Delete then Put of the same key) perform zero heap
// allocations. Skipped under -race (the detector's instrumentation
// allocates).
func TestLeaseTable10e5ZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts the race detector's own allocations")
	}
	type lease struct {
		server, ctx   uint32
		grant, expire int64
		negative      bool
	}
	names := make([]string, 100_000)
	tb := New[lease]()
	for i := range names {
		names[i] = fmt.Sprintf("storage.home.n%d", i)
		tb.Put(names[i], lease{server: uint32(i), expire: int64(i)})
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
		{"overwrite Put", func(k string, i int) { tb.Put(k, lease{server: uint32(i), expire: int64(i) + 1}) }},
		{"Delete then Put", func(k string, i int) {
			tb.Delete(k)
			tb.Put(k, lease{server: uint32(i), expire: int64(i) + 2})
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
