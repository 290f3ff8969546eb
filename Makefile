# V-System distributed name interpretation — reproduction build targets.

GO ?= go

# Wall-clock budget for each live fuzz target in `make fuzz`.
FUZZTIME ?= 10s

# Statement-coverage floor for `make cover`, raised when the
# observability suites (flight, namestat, sampled tracing, auto-tuner)
# landed. Raise it when coverage rises; never lower it to make a
# regression pass.
COVERAGE_FLOOR ?= 78.0

.PHONY: all check test race bench bench-json golden-guard vet fmt fuzz cover experiments examples clean

all: vet test

# Full verification gate: static checks, the whole suite under the race
# detector, the server-team stress tests (many real client goroutines
# hammering one team per server package), the determinism guarantees
# (same schedule + seed must give byte-identical event logs, metrics,
# and A11 team-sweep results), the trace-driven invariant harness
# (golden canonical trace, trace determinism, per-server invariant
# tier, traced workload driver, trace-under-chaos), the metrics
# contract (zero virtual cost + byte-deterministic document), and the
# coverage floor.
check: vet
	$(GO) test -race ./...
	$(GO) test -race -run 'TestTeamStress' ./internal/...
	$(GO) test -race -count=2 -run 'TestChaosScheduleDeterministic|TestA10Deterministic|TestA11Deterministic' ./internal/chaos/ ./internal/experiments/
	$(GO) test -race -run 'TestCanonicalTraceGolden|TestCanonicalTraceDeterministic|TestA12Decomposition' ./internal/experiments/
	$(GO) test -race -run 'TestTraceInvariants' ./internal/...
	$(GO) test -race -run 'TestWorkloadDriverTrace|TestTraceUnderChaos' ./internal/rig/
	$(GO) test -race -run 'TestParallelDriverEquivalence' ./internal/rig/
	GOMAXPROCS=1 $(GO) test -race -run 'TestShardedEquivalence' ./internal/rig/
	$(GO) test -race -run 'TestShardedEquivalence|TestShardedUnderChaos|TestShardedPartitionMidFlight' ./internal/rig/
	$(GO) test -race -run 'TestShardedByteIdenticalToSeed|TestShardJSONDeterministic' ./internal/experiments/
	$(GO) test -race -run 'TestShardedLeaseEquivalence|TestInvalidationUnderChaos' ./internal/rig/
	$(GO) test -race -run 'TestLeaseExpiryBoundary|TestNegativeCache|TestLeaseSurvivesFlush' ./internal/client/
	$(GO) test -race -run 'TestTier' ./internal/ncache/
	$(GO) test -race -run 'TestA17Shape|TestCacheJSONDeterministic' ./internal/experiments/
	$(GO) test -race -run 'TestA18Shape|TestZipfJSONDeterministic' ./internal/experiments/
	$(GO) test -race -count=2 -run 'TestZipfDeterministic' ./internal/popgen/
	$(GO) test -race -run 'TestOpenLoopEquivalence' ./internal/rig/
	$(GO) test -run 'TestResolve10e5ZeroAlloc' -count=1 ./internal/nametree/
	$(GO) test -run 'TestSendZeroAllocUntraced' -count=1 ./internal/kernel/
	$(GO) test -race -run 'TestMetricsZeroCost|TestMetricsDeterministic|TestA14Shape' ./internal/experiments/
	$(GO) test -race -count=2 -run 'TestReplicaDeterministic' ./internal/rig/
	$(GO) test -race -run 'TestA15Availability|TestReplicaJSONDeterministic' ./internal/experiments/
	$(GO) test -race -run 'TestObsZeroCost|TestA19Shape|TestA19Render' ./internal/experiments/
	$(GO) test -race -count=2 -run 'TestObsJSONDeterministic' ./internal/experiments/
	$(GO) test -run 'TestRecordZeroAlloc' -count=1 ./internal/flight/
	$(GO) test -race -run 'TestSealDeterministicAcrossInterleavings' ./internal/flight/
	$(GO) test -race -run 'TestTopKRecallOnZipf|TestRatesEWMAConvergence' ./internal/namestat/
	$(GO) test -race -run 'TestSampled' ./internal/trace/
	$(GO) test -race -run 'TestAutoTuner' ./internal/prefix/
	$(MAKE) golden-guard
	$(MAKE) cover

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable per-experiment results (the perf trajectory).
bench-json:
	$(GO) run ./cmd/vbench -json BENCH_vbench.json > vbench_output.txt

# Deterministic documents, one per `vbench -<doc>` flag (cmd/vbench's
# docs table; TestDocsMatchMakefile keeps the two lists equal). Each is
# committed as BENCH_<doc>.json and byte-identical across runs:
#   metrics  A14 per-(server,op) latency histograms, counters, per-tick
#            series and the chaos health report
#   replica  A15 the A14 chaos schedule against a replicated fs1
#   shard    A16 the conservative engine's shard-count sweep, each point
#            verified deeply equal to the sequential driver
#   cache    A17 lease-length hit-rate sweep plus crash/partition legs
#   zipf     A18 population-scale index cost and open-loop Zipf sweeps;
#            the 10⁶-name legs make it the slowest export (~40 s)
#   obs      A19 top-k recall, EWMA convergence, sampled tracing and the
#            lease auto-tuner
# Host-time performance is measured by perfbench (bash perfbench/run.sh).
DOCS = metrics replica shard cache zipf obs

# Regenerate one committed document, e.g. `make bench-zipf`.
bench-%:
	$(GO) run ./cmd/vbench -$* BENCH_$*.json

# Byte-identity guard for the committed golden outputs: no change may
# perturb a single virtual-time result, trace span, or metrics quantile.
# Regenerating vbench_output.txt with the metrics registry installed
# doubles as the zero-virtual-cost gate. Regenerates each golden into a
# scratch dir and compares byte-for-byte.
golden-guard:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/vbench > $$tmp/vbench_output.txt && \
	cmp vbench_output.txt $$tmp/vbench_output.txt && \
	$(GO) run ./cmd/vbench -trace $$tmp/golden_trace.json >/dev/null && \
	cmp internal/experiments/testdata/golden_trace.json $$tmp/golden_trace.json && \
	( for d in $(DOCS); do \
		$(GO) run ./cmd/vbench -$$d $$tmp/BENCH_$$d.json >/dev/null && \
		cmp BENCH_$$d.json $$tmp/BENCH_$$d.json || exit 1; \
	done ) && \
	echo "golden outputs byte-identical" && rm -rf $$tmp || \
	{ echo "golden outputs drifted from committed files"; rm -rf $$tmp; exit 1; }

vet:
	$(GO) vet ./...
	gofmt -l .

fmt:
	gofmt -w .

# Live fuzzing of every decoder and name-handling routine that faces
# arbitrary bytes, FUZZTIME each. Seed corpora live under each
# package's testdata/fuzz/ and replay in plain `go test`. The quote in
# 'FuzzDecodeDescriptor matches the anchored name only (not
# FuzzDecodeDescriptors).
fuzz:
	$(GO) test -fuzz 'FuzzMatchName' -fuzztime $(FUZZTIME) ./internal/core/
	$(GO) test -fuzz 'FuzzParse' -fuzztime $(FUZZTIME) ./internal/prefix/
	$(GO) test -fuzz 'FuzzUnmarshal' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzDecodeDescriptors' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzDecodeDescriptor$$' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzCSName' -fuzztime $(FUZZTIME) ./internal/proto/
	$(GO) test -fuzz 'FuzzCacheKey' -fuzztime $(FUZZTIME) ./internal/client/
	$(GO) test -fuzz 'FuzzNegativeCacheKey' -fuzztime $(FUZZTIME) ./internal/client/
	$(GO) test -fuzz 'FuzzModelPaths' -fuzztime $(FUZZTIME) ./internal/namemodel/
	$(GO) test -fuzz 'FuzzNametreeLookup' -fuzztime $(FUZZTIME) ./internal/nametree/
	$(GO) test -fuzz 'FuzzFlightRoundTrip' -fuzztime $(FUZZTIME) ./internal/flight/

# Statement coverage with a recorded floor: fails if total coverage
# drops below COVERAGE_FLOOR.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVERAGE_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERAGE_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' || \
	{ echo "coverage $$total% fell below floor $(COVERAGE_FLOOR)%"; exit 1; }

# Regenerate every paper table and figure (paper vs. measured).
experiments:
	$(GO) run ./cmd/vbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/diskless
	$(GO) run ./examples/multiuser
	$(GO) run ./examples/mailnames
	$(GO) run ./examples/replicated

# The deliverable capture the repository ships with.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
