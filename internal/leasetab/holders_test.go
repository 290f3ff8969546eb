package leasetab

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/proto"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func newKernel() *kernel.Kernel {
	return kernel.New(netsim.New(vtime.DefaultModel(), 1))
}

// spawnHolder starts a callback process on host that acknowledges every
// OpCacheInvalidate and reports the name and commit instant it carried.
func spawnHolder(t *testing.T, host *kernel.Host, name string, heard chan<- string) *kernel.Process {
	t.Helper()
	p, err := host.Spawn(name, func(p *kernel.Process) {
		for {
			msg, from, err := p.Receive()
			if err != nil {
				return
			}
			if n, commit, err := proto.CacheInvalidate(msg); err == nil {
				heard <- fmt.Sprintf("%s@%d", n, commit)
			}
			if p.Reply(proto.NewReply(proto.ReplyOK), from) != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Destroy)
	return p
}

// TestHoldersJoinReportsExisting pins Join's renewal signal: the first
// Join of a name creates its group and reports false, every later Join
// of that name — by the same holder or another — reports true and lands
// in the same group, and names do not share groups.
func TestHoldersJoinReportsExisting(t *testing.T) {
	k := newKernel()
	h := NewHolders()
	if h.Join(k, "home", 101) {
		t.Fatal("first Join of home reported an existing group")
	}
	if !h.Join(k, "home", 102) || !h.Join(k, "home", 101) {
		t.Fatal("later Join of home did not report the existing group")
	}
	if h.Join(k, "bin", 101) {
		t.Fatal("first Join of bin reported an existing group")
	}
	if h.groups["home"] == h.groups["bin"] {
		t.Fatalf("home and bin share group %v", h.groups["home"])
	}
	members, err := k.GroupMembers(h.groups["home"])
	if err != nil || len(members) != 2 {
		t.Fatalf("home group members = %v, %v; want 101 and 102", members, err)
	}
}

// TestHoldersConcurrentJoin has several goroutines join the same names
// at once, as team workers granting leases do: each name gets exactly
// one group, holding every joiner. Run under -race by make check.
func TestHoldersConcurrentJoin(t *testing.T) {
	const workers, names = 8, 50
	k := newKernel()
	h := NewHolders()
	var wg sync.WaitGroup
	fresh := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				if !h.Join(k, fmt.Sprintf("n%d", i), kernel.PID(1000+w)) {
					fresh[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	created := 0
	for _, n := range fresh {
		created += n
	}
	if created != names || len(h.groups) != names {
		t.Fatalf("%d Joins reported a new group and %d groups exist, want %d each", created, len(h.groups), names)
	}
	for name, gid := range h.groups {
		members, err := k.GroupMembers(gid)
		if err != nil || len(members) != workers {
			t.Fatalf("group of %s has %d members (%v), want %d", name, len(members), err, workers)
		}
	}
}

// TestHoldersInvalidateWithoutHolders: a name nobody leased has no
// group, so Invalidate sends nothing — not even an empty group send,
// which would still leave a span in the trace — and returns 0.
func TestHoldersInvalidateWithoutHolders(t *testing.T) {
	k := newKernel()
	tr := trace.New()
	k.SetTracer(tr)
	p, err := k.NewHost("srv").NewProcess("server")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHolders()
	h.Join(k, "other", 77)
	if n := h.Invalidate(p, "home", 5); n != 0 {
		t.Fatalf("Invalidate of an unleased name = %d, want 0", n)
	}
	if tr.Len() != 0 || p.Now() != 0 {
		t.Fatalf("Invalidate of an unleased name left %d spans and advanced the clock to %v", tr.Len(), p.Now())
	}
}

// TestHoldersInvalidateCountsAcks: the barrier reaches every live
// holder of the name with the name and commit instant, skips a holder
// destroyed since it joined, and counts only the acknowledgements.
func TestHoldersInvalidateCountsAcks(t *testing.T) {
	k := newKernel()
	ws := k.NewHost("ws")
	heard := make(chan string, 4) // one per holder: each hears at most one invalidation
	a := spawnHolder(t, ws, "a", heard)
	b := spawnHolder(t, ws, "b", heard)
	gone := spawnHolder(t, ws, "gone", heard)
	other := spawnHolder(t, ws, "other", heard)
	p, err := k.NewHost("srv").NewProcess("server")
	if err != nil {
		t.Fatal(err)
	}
	h := NewHolders()
	for _, hp := range []*kernel.Process{a, b, gone} {
		h.Join(k, "home", hp.PID())
	}
	h.Join(k, "bin", other.PID())
	gone.Destroy()
	if n := h.Invalidate(p, "home", 42); n != 2 {
		t.Fatalf("Invalidate acknowledged by %d holders, want 2", n)
	}
	for i := 0; i < 2; i++ {
		select {
		case got := <-heard:
			if got != "home@42" {
				t.Fatalf("holder heard %q, want home@42", got)
			}
		default:
			t.Fatalf("only %d of 2 live holders heard the invalidation", i)
		}
	}
	select {
	case got := <-heard:
		t.Fatalf("unexpected callback %q", got)
	default:
	}
}
