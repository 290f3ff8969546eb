package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVbenchList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e1", "e2", "e3", "e5", "t1", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10"} {
		if !strings.Contains(sb.String(), id) {
			t.Errorf("missing experiment id %q", id)
		}
	}
}

func TestVbenchChaosAlias(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"chaos"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"A10", "chaos sweep", "dynamic binding, invalidate-and-retry"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVbenchSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"e1"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"E1", "2.56 ms", "paper", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestVbenchUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"zz"}, &sb); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestVbenchScorecard(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-score"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "scorecard") || strings.Contains(out, "DEVIATES") {
		t.Fatalf("scorecard output:\n%s", out)
	}
}

// TestDocsMatchMakefile checks, without regenerating anything, that
// the export table and the Makefile's DOCS list (which drives bench-%
// and golden-guard) name the same documents in the same order, and that
// every document's committed golden exists.
func TestDocsMatchMakefile(t *testing.T) {
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var makeDocs []string
	for _, line := range strings.Split(string(mk), "\n") {
		if rest, ok := strings.CutPrefix(line, "DOCS = "); ok {
			makeDocs = strings.Fields(rest)
		}
	}
	var names []string
	for _, d := range docs {
		names = append(names, d.flag)
		if _, err := os.Stat(filepath.Join("../..", d.golden())); err != nil {
			t.Errorf("-%s golden: %v", d.flag, err)
		}
	}
	if strings.Join(names, " ") != strings.Join(makeDocs, " ") {
		t.Fatalf("vbench docs %v, Makefile DOCS %v", names, makeDocs)
	}
}

// TestVbenchCacheGolden regenerates the A17 lease-coherence document
// through the CLI path and byte-compares it with the committed golden,
// so BENCH_cache.json drift is caught by plain `go test` as well as by
// `make golden-guard`.
func TestVbenchCacheGolden(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "BENCH_cache.json")
	var sb strings.Builder
	if err := run([]string{"-cache", tmp}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wrote lease-coherence document") {
		t.Fatalf("output:\n%s", sb.String())
	}
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_cache.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("regenerated cache document differs from committed BENCH_cache.json; run `make bench-cache` if the change is intended")
	}
}
