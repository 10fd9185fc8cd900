package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and the tables in
// spec.go in step: the driver reads the one, the program prints the other.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from spec.go:\n json %+v\n spec %+v", f.EndToEnd, endToEnd)
	}
	if want := perLayerDefs(); !reflect.DeepEqual(f.PerLayer, want) {
		t.Errorf("per_layer differs from spec.go:\n json %+v\n spec %+v", f.PerLayer, want)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, spec {%s %s}", i, f.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(f.EndToEnd), len(f.PerLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, f.EndToEnd...), f.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
		if len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %s: name or unit too long", d.Name)
		}
	}
	for _, d := range f.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
