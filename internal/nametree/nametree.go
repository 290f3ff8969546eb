// Package nametree is the population-scale name index (PROTOCOL.md
// §14): a compressed radix (patricia) tree over string keys with
// copy-on-write nodes behind an atomically swapped root.
//
// The paper's prefix table was 2.6 KB of MC68000 data (§6); the
// population-scale workloads (ROADMAP items 2–3) resolve against
// 10⁵–10⁶ names, where the flat map tables the servers grew up with
// become hot-path liabilities: snapshot rebuilds, full copies under the
// server mutex, and linear first-match scans. The radix index replaces
// them with one structure serving every access pattern the name servers
// have:
//
//   - Get is the resolution fast path: lock-free (an atomic root load
//     and a pointer descent over immutable nodes) and zero-allocation,
//     so a server team's workers and a client's classifier probes never
//     contend with writers or with each other.
//   - LongestPrefix finds the longest registered prefix of a key in
//     O(depth) — the descendant-design lookup (upspin-style
//     tree-structured directories) a flat map cannot answer without
//     probing every prefix length.
//   - Walk iterates a consistent snapshot in lexicographic key order
//     with no lock held, which is what lets directory fabrication,
//     table snapshots and Bindings() run off the immutable tree instead
//     of copying the table under the server mutex.
//   - Len and KeyBytes are atomic counters, so table-size probes
//     (prefix.TableBytes) cost two loads instead of an O(n) scan.
//
// Writers (Insert, Delete, Load) serialize on an internal mutex and
// publish by atomically swapping the root: Insert and Delete path-copy
// the affected spine, Load builds a whole table bottom-up. Readers
// therefore never observe a partially applied mutation, and a read
// overlapped by a write sees exactly the tree before or after it — the
// same semantics a mutex would give, without the reader ever blocking.
package nametree

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// node is one immutable radix node: the compressed edge label from its
// parent, an optional value, and children sorted by the first byte of
// their labels (sibling labels never share a first byte).
type node[V any] struct {
	label    string
	hasVal   bool
	val      V
	children []*node[V]
}

// Tree is a copy-on-write compressed radix tree from string keys to V.
// The zero value is not ready; use New.
type Tree[V any] struct {
	mu       sync.Mutex // serializes writers; readers never take it
	root     atomic.Pointer[node[V]]
	count    atomic.Int64
	keyBytes atomic.Int64
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	t := &Tree[V]{}
	t.root.Store(&node[V]{})
	return t
}

// Len returns the number of keys (an atomic load).
func (t *Tree[V]) Len() int { return int(t.count.Load()) }

// KeyBytes returns the summed length of every stored key (an atomic
// load) — the table-size counter servers report without scanning.
func (t *Tree[V]) KeyBytes() int { return int(t.keyBytes.Load()) }

// child returns n's child whose label starts with b, by binary search
// over the sorted child slice.
func (n *node[V]) child(b byte) *node[V] {
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.children[mid].label[0] < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.children) && n.children[lo].label[0] == b {
		return n.children[lo]
	}
	return nil
}

// Get returns the value stored under key. It is the resolution hit
// path: lock-free and zero-allocation.
func (t *Tree[V]) Get(key string) (V, bool) {
	n := t.root.Load()
	for {
		if len(key) == 0 {
			if n.hasVal {
				return n.val, true
			}
			var zero V
			return zero, false
		}
		c := n.child(key[0])
		if c == nil || len(key) < len(c.label) || key[:len(c.label)] != c.label {
			var zero V
			return zero, false
		}
		key = key[len(c.label):]
		n = c
	}
}

// GetSteps is Get instrumented with the number of nodes visited during
// the descent (the root counts as one). It is the deterministic
// virtual-cost probe the population-scale experiment reports against
// the flat-table baseline; the uninstrumented Get stays the hot path.
func (t *Tree[V]) GetSteps(key string) (v V, ok bool, steps int) {
	n := t.root.Load()
	steps = 1
	for {
		if len(key) == 0 {
			if n.hasVal {
				return n.val, true, steps
			}
			return v, false, steps
		}
		c := n.child(key[0])
		if c == nil || len(key) < len(c.label) || key[:len(c.label)] != c.label {
			return v, false, steps
		}
		key = key[len(c.label):]
		n = c
		steps++
	}
}

// LongestPrefix returns the longest key in the tree that is a prefix of
// query, as the length of the matched prefix (query[:n]), its value,
// and whether any prefix matched. Like Get it is lock-free and
// zero-allocation.
func (t *Tree[V]) LongestPrefix(query string) (n int, v V, ok bool) {
	cur := t.root.Load()
	consumed := 0
	if cur.hasVal {
		n, v, ok = 0, cur.val, true
	}
	for consumed < len(query) {
		c := cur.child(query[consumed])
		if c == nil {
			break
		}
		rest := query[consumed:]
		if len(rest) < len(c.label) || rest[:len(c.label)] != c.label {
			break
		}
		consumed += len(c.label)
		cur = c
		if cur.hasVal {
			n, v, ok = consumed, cur.val, true
		}
	}
	return n, v, ok
}

// Insert stores v under key, replacing any existing value. It reports
// whether a value was replaced.
func (t *Tree[V]) Insert(key string, v V) (replaced bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root, replaced := insert(t.root.Load(), key, v)
	t.root.Store(root)
	if !replaced {
		t.count.Add(1)
		t.keyBytes.Add(int64(len(key)))
	}
	return replaced
}

// insert returns a copy of n with v stored under key (relative to n).
func insert[V any](n *node[V], key string, v V) (*node[V], bool) {
	if len(key) == 0 {
		cp := *n
		replaced := cp.hasVal
		cp.hasVal, cp.val = true, v
		return &cp, replaced
	}
	c := n.child(key[0])
	if c == nil {
		leaf := &node[V]{label: key, hasVal: true, val: v}
		return withChild(n, nil, leaf), false
	}
	common := commonPrefix(key, c.label)
	if common == len(c.label) {
		nc, replaced := insert(c, key[common:], v)
		return withChild(n, c, nc), replaced
	}
	// The key diverges inside c's label: split the edge at the fork.
	tail := *c
	tail.label = c.label[common:]
	mid := &node[V]{label: c.label[:common]}
	if common == len(key) {
		mid.hasVal, mid.val = true, v
		mid.children = []*node[V]{&tail}
	} else {
		leaf := &node[V]{label: key[common:], hasVal: true, val: v}
		if leaf.label[0] < tail.label[0] {
			mid.children = []*node[V]{leaf, &tail}
		} else {
			mid.children = []*node[V]{&tail, leaf}
		}
	}
	return withChild(n, c, mid), false
}

// Load replaces the tree's contents with keys[i] → vals[i] in one
// publish. keys must be sorted and strictly increasing; a violation is
// a programming error and panics before the tree is touched. The tree
// is built bottom-up with every node allocated once, and is the same
// canonical tree sequential Inserts of the same keys would build, so a
// population boot or a table install costs one pass instead of one
// path copy per key. Readers see the old table or the new one, never a
// mix.
func (t *Tree[V]) Load(keys []string, vals []V) {
	if len(keys) != len(vals) {
		panic(fmt.Sprintf("nametree: Load of %d keys with %d values", len(keys), len(vals)))
	}
	keyBytes := 0
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			panic(fmt.Sprintf("nametree: Load keys not strictly increasing at %d: %q, %q", i, keys[i-1], k))
		}
		keyBytes += len(k)
	}
	root := &node[V]{}
	rest, restVals := keys, vals
	if len(keys) > 0 && keys[0] == "" {
		root.hasVal, root.val = true, vals[0]
		rest, restVals = keys[1:], vals[1:]
	}
	root.children = build(rest, restVals, 0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.Store(root)
	t.count.Store(int64(len(keys)))
	t.keyBytes.Store(int64(keyBytes))
}

// build returns the child nodes for keys (sorted, distinct, all longer
// than at and equal on their first at bytes): one node per distinct
// byte at offset at, in sorted order, in an exactly sized slice — nil
// when keys is empty, as for a leaf Insert builds.
func build[V any](keys []string, vals []V, at int) []*node[V] {
	groups := 0
	for i := range keys {
		if i == 0 || keys[i][at] != keys[i-1][at] {
			groups++
		}
	}
	if groups == 0 {
		return nil
	}
	children := make([]*node[V], 0, groups)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi][at] == keys[lo][at] {
			hi++
		}
		// Sorted keys: the group's common prefix is that of its first
		// and last key, and only the first can end there.
		end := at + commonPrefix(keys[lo][at:], keys[hi-1][at:])
		n := &node[V]{label: keys[lo][at:end]}
		rest, restVals := keys[lo:hi], vals[lo:hi]
		if len(rest[0]) == end {
			n.hasVal, n.val = true, restVals[0]
			rest, restVals = rest[1:], restVals[1:]
		}
		n.children = build(rest, restVals, end)
		children = append(children, n)
		lo = hi
	}
	return children
}

// Delete removes key, reporting whether it was present.
func (t *Tree[V]) Delete(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	root, removed := remove(t.root.Load(), key)
	if !removed {
		return false
	}
	t.root.Store(root)
	t.count.Add(-1)
	t.keyBytes.Add(int64(-len(key)))
	return true
}

// remove returns a copy of n with key (relative to n) removed,
// re-compressing pass-through nodes so the tree stays canonical.
func remove[V any](n *node[V], key string) (*node[V], bool) {
	if len(key) == 0 {
		if !n.hasVal {
			return n, false
		}
		cp := *n
		cp.hasVal = false
		var zero V
		cp.val = zero
		return &cp, true
	}
	c := n.child(key[0])
	if c == nil || len(key) < len(c.label) || key[:len(c.label)] != c.label {
		return n, false
	}
	nc, removed := remove(c, key[len(c.label):])
	if !removed {
		return n, false
	}
	switch {
	case !nc.hasVal && len(nc.children) == 0:
		nc = nil // prune the emptied leaf
	case !nc.hasVal && len(nc.children) == 1:
		// Re-compress: a valueless single-child node merges with it.
		merged := *nc.children[0]
		merged.label = nc.label + merged.label
		nc = &merged
	}
	return withChild(n, c, nc), true
}

// withChild returns a copy of n with child old replaced by nw (old nil
// inserts nw in sorted position; nw nil deletes old).
func withChild[V any](n *node[V], old, nw *node[V]) *node[V] {
	cp := *n
	if old == nil {
		pos := 0
		for pos < len(n.children) && n.children[pos].label[0] < nw.label[0] {
			pos++
		}
		cp.children = make([]*node[V], 0, len(n.children)+1)
		cp.children = append(cp.children, n.children[:pos]...)
		cp.children = append(cp.children, nw)
		cp.children = append(cp.children, n.children[pos:]...)
		return &cp
	}
	pos := 0
	for n.children[pos] != old {
		pos++
	}
	if nw == nil {
		cp.children = make([]*node[V], 0, len(n.children)-1)
		cp.children = append(cp.children, n.children[:pos]...)
		cp.children = append(cp.children, n.children[pos+1:]...)
		return &cp
	}
	cp.children = make([]*node[V], len(n.children))
	copy(cp.children, n.children)
	cp.children[pos] = nw
	return &cp
}

// commonPrefix returns the length of the longest common prefix of a
// and b.
func commonPrefix(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// Walk visits every key/value pair of one consistent snapshot in
// lexicographic key order, stopping early if fn returns false. No lock
// is held: concurrent mutations do not perturb the walk.
func (t *Tree[V]) Walk(fn func(key string, v V) bool) {
	walk(t.root.Load(), make([]byte, 0, 64), fn)
}

func walk[V any](n *node[V], key []byte, fn func(key string, v V) bool) bool {
	key = append(key, n.label...)
	if n.hasVal && !fn(string(key), n.val) {
		return false
	}
	for _, c := range n.children {
		if !walk(c, key, fn) {
			return false
		}
	}
	return true
}
