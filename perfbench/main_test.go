package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON: the metrics the benchmark prints are
// exactly the ones BENCHMARK.json declares, with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var decl struct {
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		decl []entry
		code []metricDef
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", c.name, len(c.decl), len(c.code))
			continue
		}
		for i, d := range c.decl {
			if d.Name != c.code[i].name || d.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", c.name, i, d.Name, d.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
	for _, w := range decl.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the code does not run", w.Name)
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(decl.Workloads), len(workloads))
	}
}
