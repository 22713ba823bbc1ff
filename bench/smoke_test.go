package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/banksdb/banks/internal/datagen"
)

// manifest is the part of BENCHMARK.json the tests hold the program to.
type manifest struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// smokeConfig is every workload's run at test size: the small dataset, a
// one-second window, a 20-query ladder.
func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{
		Seed:       1,
		Window:     time.Second,
		MinSamples: 10,
		Warmup:     200 * time.Millisecond,
		Trace:      trace,
		Out:        t.TempDir(),
		Scale:      datagen.SmallDBLP(),
	}
}

func smokeWorkload(w workload) workload {
	w.Ladder = 20
	return w
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkMetrics holds one run's metrics to the manifest: exactly the
// named metrics, each with its unit and a finite value.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct {
		t.Error("the correctness pass is not green")
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s is %v", m.Name, got.Value)
		}
		if !metricName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q breaks the naming rule", m.Name)
		}
	}
	sort.Strings(names)
	for name := range res.Metrics {
		if i := sort.SearchStrings(names, name); i == len(names) || names[i] != name {
			t.Errorf("metric %s is emitted but not in BENCHMARK.json", name)
		}
	}
}

func TestSmoke(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, m.Workloads[i].Name, w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(smokeWorkload(w), smokeConfig(t, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, m.EndToEnd)
			for _, e := range m.EndToEnd {
				if res.Metrics[e.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", e.Name)
				}
			}

			cfg := smokeConfig(t, true)
			res, err = runWorkload(smokeWorkload(w), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, m.PerLayer)
			data, err := os.ReadFile(filepath.Join(cfg.Out, "trace."+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			if len(spans) == 0 {
				t.Fatal("span file is empty")
			}
			ids := map[int]bool{0: true}
			for _, s := range spans {
				ids[s.Span] = true
			}
			for _, s := range spans {
				if !ids[s.Parent] {
					t.Errorf("span %d (%s) has parent %d, which does not exist", s.Span, s.Name, s.Parent)
				}
				if s.EndNS < s.StartNS || s.Workload != w.Name {
					t.Errorf("span %d (%s): start %d end %d workload %q", s.Span, s.Name, s.StartNS, s.EndNS, s.Workload)
				}
			}
		})
	}
}
