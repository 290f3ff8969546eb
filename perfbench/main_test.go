package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tiny shrinks every workload to test size for the duration of a test.
func tiny(t *testing.T) {
	t.Helper()
	saved := append([]spec(nil), specs...)
	for i := range specs {
		specs[i].requests = 100
		if specs[i].population > 0 {
			specs[i].population = 2000
		}
	}
	t.Cleanup(func() { copy(specs, saved) })
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestEveryBenchmarkMetricPrinted runs every workload of BENCHMARK.json
// untraced and traced at tiny sizes, and checks that each prints exactly
// the metrics BENCHMARK.json names, each with its unit, and passes its
// output checks.
func TestEveryBenchmarkMetricPrinted(t *testing.T) {
	tiny(t)
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	dir := t.TempDir()
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			list := bf.EndToEnd
			if trace == "1" {
				list = bf.PerLayer
			}
			for _, m := range list {
				want[m.Name] = m.Unit
			}
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.001", "--trace", trace,
				"--spans", dir}
			profile := filepath.Join(dir, w.Name+trace+".pprof")
			if trace == "0" {
				args = append(args, "--cpuprofile", profile)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace %s: metric %s printed as %+v, want unit %s", w.Name, trace, name, m, unit)
				}
				if !strings.Contains(stdout.String(), "\n"+name+" ") {
					t.Errorf("%s trace %s: no human-readable line for %s", w.Name, trace, name)
				}
			}
			if trace == "0" {
				if st, err := os.Stat(profile); err != nil || st.Size() == 0 {
					t.Errorf("%s: cpu profile not written: %v", w.Name, err)
				}
			}
		}
	}
}

// TestInjectedFailuresRaiseErrorRate wraps Op so every seventh operation
// fails, and checks the run reports the failures and is not correct.
func TestInjectedFailuresRaiseErrorRate(t *testing.T) {
	tiny(t)
	sp, _ := specByName("zipf-churn")
	errInjected := errors.New("injected")
	opts := options{seed: 5, seconds: time.Millisecond, minRounds: 2,
		inject: func(client, iter int, err error) error {
			if iter%7 == 0 {
				return errInjected
			}
			return err
		}}
	res, err := measureEndToEnd(sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || res.failed == 0 {
		t.Fatalf("correct=%v failed=%d: injected failures not counted", res.correct, res.failed)
	}
	for _, m := range res.extra {
		if m.name == "error_rate" {
			if m.value < 0.1 {
				t.Fatalf("error_rate %v with every seventh op failing", m.value)
			}
			return
		}
	}
	t.Fatal("error_rate not reported")
}

// TestSaturationGuard checks the guard passes zipf-tail's own rate and
// trips at A18's 2 ms inter-arrival, far past the simulated capacity.
func TestSaturationGuard(t *testing.T) {
	tiny(t)
	sp, _ := specByName("zipf-tail")
	sp.requests = 200
	rd, err := runRound(sp, 1, roundConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSaturation(sp, rd); err != nil {
		t.Fatalf("guard tripped at the workload's own rate: %v", err)
	}
	sp.interarrival = saturatingInterarrival
	if rd, err = runRound(sp, 1, roundConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := checkSaturation(sp, rd); err == nil {
		t.Fatalf("guard passed at %v inter-arrival (median virtual latency %v first quarter, %v last)",
			saturatingInterarrival, rd.satFirst, rd.satLast)
	}
}
