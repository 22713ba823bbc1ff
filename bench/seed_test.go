package main

import (
	"reflect"
	"testing"

	banks "github.com/banksdb/banks"
	"github.com/banksdb/banks/internal/datagen"
)

// lists builds the dataset afresh and generates every workload's query
// list and the mutation script from the seed.
func lists(t *testing.T, seed int64) (map[string][]query, []mutation, lookupFunc) {
	t.Helper()
	db, _, err := buildDB(datagen.SmallDBLP())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := banks.NewSystem(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	c, err := readCorpus(db)
	if err != nil {
		t.Fatal(err)
	}
	qs := map[string][]query{}
	for _, w := range workloads {
		qs[w.Name] = genQueries(c, sys.Lookup, w.Mix, w.List, seed)
	}
	return qs, genMutations(c, 1000, seed), sys.Lookup
}

func TestSeedMakesTheLists(t *testing.T) {
	q1, m1, lookup := lists(t, 1)
	q2, m2, _ := lists(t, 1)
	if !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(m1, m2) {
		t.Error("the same seed gave different lists")
	}
	q3, m3, _ := lists(t, 2)
	for name := range q1 {
		if reflect.DeepEqual(q1[name], q3[name]) {
			t.Errorf("%s: seeds 1 and 2 gave the same query list", name)
		}
	}
	if reflect.DeepEqual(m1, m3) {
		t.Error("seeds 1 and 2 gave the same mutation script")
	}
	if !reflect.DeepEqual(q1["read-names"], q1["scatter-names"]) {
		t.Error("scatter-names does not walk read-names' list")
	}
	for name, qs := range q1 {
		for _, q := range qs {
			if !admit(lookup, q.Class, q.Text) {
				t.Errorf("%s: query %q (%s) breaks its class's origin rule", name, q.Text, q.Class)
			}
		}
	}
}

// The counts of the traced run and the cluster's recall are properties
// of the lists, not of the machine: the same seed repeats them exactly.
func TestSeedRepeatsTheCounts(t *testing.T) {
	counts := func(name string, trace bool, metrics ...string) []float64 {
		w, _ := workloadByName(name)
		res, err := runWorkload(smokeWorkload(w), smokeConfig(t, trace))
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, m := range metrics {
			out = append(out, res.Metrics[m].Value)
		}
		return out
	}
	layer := []string{"core.pops_per_query", "core.origins_per_query", "core.arcs_per_query", "wal.bytes_per_batch", "cluster.pruned_leg_ratio"}
	if a, b := counts("read-names", true, layer...), counts("read-names", true, layer...); !reflect.DeepEqual(a, b) {
		t.Errorf("traced counts %v differ between two runs of one seed: %v, %v", layer, a, b)
	}
	if a, b := counts("scatter-names", false, "recall_at_10"), counts("scatter-names", false, "recall_at_10"); !reflect.DeepEqual(a, b) {
		t.Errorf("recall_at_10 differs between two runs of one seed: %v, %v", a, b)
	}
}
