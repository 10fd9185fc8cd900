package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke is `bench -smoke`: tiny sizes, one rep, all four workloads end
// to end against a real trajserver child, the traced run of each, and every
// output check. It asserts no bounds — only that every metric is produced
// and no check fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives a trajserver child process")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin := filepath.Join(work, "trajserver")
	if err := buildServer(root, bin); err != nil {
		t.Fatal(err)
	}
	cfg := suiteConfig{
		root: root, seed: 1, seconds: smokeSeconds, reps: 1, smoke: true, traced: true,
		serverBin: bin, tmpRoot: work, spans: filepath.Join(work, "spans.csv"),
	}
	var out bytes.Buffer
	rep, ok, err := runSuite(cfg, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !ok {
		t.Fatalf("output checks failed:\n%s", out.String())
	}
	for _, w := range workloads {
		wr, found := rep.Workloads[w.Name]
		if !found {
			t.Errorf("workload %s missing from the report", w.Name)
			continue
		}
		for _, d := range endToEnd {
			if s, ok := wr.EndToEnd[d.Name]; !ok || !(s.Median > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive figure", w.Name, d.Name, s.Median)
			}
		}
		for _, d := range perLayerDefs() {
			if _, ok := wr.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, d.Name)
			}
		}
		// Each layer has a workload that exercises it and one that bypasses it.
		layer := func(name string) float64 { return wr.PerLayer[name].Median }
		if w.wal != (layer("wal.fs_sync_ns_per_point") > 0) {
			t.Errorf("%s: wal.fs_sync_ns_per_point = %g with wal=%v", w.Name, layer("wal.fs_sync_ns_per_point"), w.wal)
		}
		if (w.compress != "none") != (layer("stream.push_ns_per_point") > 0) {
			t.Errorf("%s: stream.push_ns_per_point = %g with -compress %s", w.Name, layer("stream.push_ns_per_point"), w.compress)
		}
		if (w.sealEps > 0) != (layer("seal.range_cold_us_per_query") > 0) {
			t.Errorf("%s: seal.range_cold_us_per_query = %g with seal eps %g", w.Name, layer("seal.range_cold_us_per_query"), w.sealEps)
		}
		if fi, err := os.Stat(filepath.Join(work, "spans."+w.Name+".csv")); err != nil || fi.Size() == 0 {
			t.Errorf("%s: span dump missing or empty: %v", w.Name, err)
		}
	}
	// The report round-trips through its file format, which -compare reads.
	path := filepath.Join(work, "report.json")
	if err := writeReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := readBounds(root)
	if err != nil {
		t.Fatal(err)
	}
	var cmp bytes.Buffer
	if ok, err := compareReports(&cmp, bounds, rep, back); err != nil || !ok {
		t.Errorf("a report compared with itself: ok=%v err=%v\n%s", ok, err, cmp.String())
	}
}
