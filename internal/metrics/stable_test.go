package metrics

import "testing"

func TestStableRead(t *testing.T) {
	calls := 0
	steady := func() int { calls++; return 7 }
	if got := StableRead(steady); got != 7 || calls != 2 {
		t.Fatalf("steady counters: got %d after %d loads, want 7 after 2", got, calls)
	}
	// Counters that never settle: the read is bounded and returns the
	// last pass.
	calls = 0
	moving := func() int { calls++; return calls }
	if got := StableRead(moving); got != 4 || calls != 4 {
		t.Fatalf("moving counters: got %d after %d loads, want 4 after 4", got, calls)
	}
}
