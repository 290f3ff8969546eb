//go:build race

package leasetab

// raceEnabled reports whether the race detector is compiled in; the
// zero-allocation assertion is skipped under -race because the
// detector's instrumentation allocates on every synchronization op.
const raceEnabled = true
