package main

import "encoding/json"

// benchmarkFile is BENCHMARK.json: the driver's contract, generated from the
// tables in spec.go by the -print-benchmark-json flag (never edited by
// hand), read back by -compare for the bounds and by spec_test.go.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"` // no bound: metricDef omits a zero one
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkJSONText(runSeconds int) ([]byte, error) {
	doc := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayerDefs(),
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{w.Name, w.Why})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
