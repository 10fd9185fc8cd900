package main

import (
	"bytes"
	"strings"
	"testing"
)

func runs(vs ...float64) metricSummary {
	s := metricSummary{Runs: vs, Median: medianFloat(vs)}
	s.Min, s.Max = minMax(vs)
	return s
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "points_per_s", Unit: "points/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		def  metricDef
		a, b metricSummary
		want verdict
	}{
		{"same figures", lower, runs(10, 10.1, 10.2), runs(10, 10.1, 10.2), unchanged},
		{"worse within the bound", lower, runs(10, 10.1, 10.2), runs(10.5, 10.6, 10.7), unchanged},
		{"worse beyond the bound", lower, runs(10, 10.1, 10.2), runs(12, 12.1, 12.2), regressed},
		{"better beyond the bound", lower, runs(10, 10.1, 10.2), runs(8, 8.1, 8.2), improved},
		{"higher is better: a drop regresses", higher, runs(100, 101, 102), runs(80, 81, 82), regressed},
		{"higher is better: a rise improves", higher, runs(100, 101, 102), runs(120, 121, 122), improved},
		{"higher is better: small drop", higher, runs(100, 101, 102), runs(95, 96, 97), unchanged},
		{"noisy first side hides a small change", lower, runs(8, 10, 12), runs(10.2, 10.3, 10.4), unresolved},
		{"noisy second side hides a small change", lower, runs(10, 10.1, 10.2), runs(8, 10, 12), unresolved},
		{"noisy and worse, ranges overlap", lower, runs(8, 10, 12), runs(10, 11.5, 13), unresolved},
		{"noisy but worse beyond any overlap", lower, runs(8, 10, 12), runs(20, 22, 26), regressed},
		{"noisy and better is still unresolved", lower, runs(8, 10, 12), runs(5, 6, 7), unresolved},
		{"metric absent from one side", lower, runs(10), metricSummary{}, missing},
	}
	for _, c := range cases {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func report(cpus int, failedShare float64, latency ...float64) suiteReport {
	return suiteReport{
		Env: environment{CPUs: cpus},
		Workloads: map[string]workloadReport{
			"ingest_batch": {EndToEnd: map[string]metricSummary{"latency_ms": runs(latency...)}, FailedOpsShare: failedShare},
		},
	}
}

func TestCompareReports(t *testing.T) {
	bounds := []metricDef{{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.10}}
	cases := []struct {
		name    string
		a, b    suiteReport
		wantOK  bool
		wantErr bool
		wantOut string
	}{
		{"unchanged passes", report(2, 0, 10, 10.1, 10.2), report(2, 0, 10.1, 10.2, 10.3), true, false, "unchanged"},
		{"regression fails", report(2, 0, 10, 10.1, 10.2), report(2, 0, 13, 13.1, 13.2), false, false, "REGRESSED"},
		{"unresolved passes but says so", report(2, 0, 8, 10, 12), report(2, 0, 9, 10, 11), true, false, "unresolved"},
		{"a rise in failed_ops_share fails", report(2, 0, 10, 10.1, 10.2), report(2, 0.01, 10, 10.1, 10.2), false, false, "failed_ops_share"},
		{"different cpus are refused", report(1, 0, 10), report(2, 0, 10), false, true, ""},
	}
	for _, c := range cases {
		var out bytes.Buffer
		ok, err := compareReports(&out, bounds, c.a, c.b)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr %v", c.name, err, c.wantErr)
			continue
		}
		if ok != c.wantOK {
			t.Errorf("%s: ok = %v, want %v\n%s", c.name, ok, c.wantOK, out.String())
		}
		if !strings.Contains(out.String(), c.wantOut) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.wantOut, out.String())
		}
	}
	// A borrowed cell (range_hot_p50_ms on ingest_batch, whose timed phase has
	// no queries) is shown but never gated.
	probeBounds := []metricDef{{Name: "range_hot_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}
	probeReport := func(v float64) suiteReport {
		r := report(2, 0, 10)
		r.Workloads["ingest_batch"] = workloadReport{EndToEnd: map[string]metricSummary{"range_hot_p50_ms": runs(v, v, v)}}
		return r
	}
	var out bytes.Buffer
	if ok, err := compareReports(&out, probeBounds, probeReport(1), probeReport(2)); !ok || err != nil || !strings.Contains(out.String(), "borrowed") {
		t.Errorf("a doubled borrowed cell: ok=%v err=%v, want ok and a borrowed verdict\n%s", ok, err, out.String())
	}
	missingWorkload := report(2, 0, 10)
	delete(missingWorkload.Workloads, "ingest_batch")
	if ok, _ := compareReports(&bytes.Buffer{}, bounds, report(2, 0, 10), missingWorkload); ok {
		t.Error("a workload missing from the second report must fail the comparison")
	}
}
