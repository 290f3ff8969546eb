// Package leasetab is the exact-key table behind the two lease caches:
// the client session's (internal/client) and the shared ncache tier's
// (internal/ncache). Both look entries up, replace them and drop them by
// their full prefix name only; neither ever asks for a longest-prefix
// match, an ordered walk or a reverse lookup. Those are what the
// copy-on-write radix index (internal/nametree) exists for, and it stays
// the prefix server's binding index (PROTOCOL.md §14.1). Here it would
// only cost a path copy of a tree holding thousands of leases on every
// grant, renewal and invalidation.
//
// A Table is a Go map behind a mutex. Each method holds the lock for one
// map operation, so a lease cache's callback process can drop an entry
// while the session reads it and the engine's classifiers probe it, and
// each of them sees the entry either before or after the drop. Get, a
// Put that replaces a present key and a Put that re-inserts a key just
// deleted perform no heap allocation.
package leasetab

import "sync"

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
