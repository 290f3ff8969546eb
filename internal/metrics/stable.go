package metrics

// StableRead returns a torn-read-resistant snapshot of a set of atomic
// counters: load reads every field with an atomic load, and the whole
// set is re-read until two consecutive passes agree (bounded, falling
// back to the last read under sustained traffic). A mid-run reader
// therefore never sees, e.g., a packet counted whose bytes are not.
// Writers keep their plain atomic adds; only readers pay the re-read.
func StableRead[T comparable](load func() T) T {
	prev := load()
	for i := 0; i < 3; i++ {
		cur := load()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}
