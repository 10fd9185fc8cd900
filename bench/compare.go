package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func readBounds(root string) ([]metricDef, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(f.EndToEnd) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json names no end_to_end metrics")
	}
	return f.EndToEnd, nil
}

// verdict is what the comparison says about one metric on one workload.
type verdict string

const (
	unchanged  verdict = "unchanged"
	improved   verdict = "improved"
	regressed  verdict = "REGRESSED"
	unresolved verdict = "unresolved"
	missing    verdict = "missing"
	borrowed   verdict = "borrowed" // not the workload's own metric: shown, never gated
)

// judge applies one metric's bound to the medians of two sets of runs.
// The change is the share of a's median by which b is worse (negative when
// better). A side whose own min–max spread exceeds the bound cannot resolve
// a change of the bound's size: the metric is then unresolved, never
// unchanged — unless b is worse beyond the bound and the two ranges do not
// even overlap, which no spread explains.
func judge(def metricDef, a, b metricSummary) (verdict, float64) {
	if len(a.Runs) == 0 || len(b.Runs) == 0 || a.Median <= 0 {
		return missing, 0
	}
	worse := (b.Median - a.Median) / a.Median
	overlap := b.Min <= a.Max
	if def.Better == "higher" {
		worse = -worse
		overlap = b.Max >= a.Min
	}
	spread := func(s metricSummary) float64 {
		if s.Median <= 0 {
			return 0
		}
		return (s.Max - s.Min) / s.Median
	}
	noisy := spread(a) > def.Bound || spread(b) > def.Bound
	switch {
	case worse > def.Bound && (!noisy || !overlap):
		return regressed, worse
	case noisy:
		return unresolved, worse
	case worse < -def.Bound:
		return improved, worse
	default:
		return unchanged, worse
	}
}

// compareReports prints one row per workload and metric and returns false
// if a metric regressed on a workload whose own phase produces it, or a
// workload's failed_ops_share rose.
func compareReports(out io.Writer, bounds []metricDef, a, b suiteReport) (bool, error) {
	if a.Env.CPUs != b.Env.CPUs || a.Env.UsableCPUs != b.Env.UsableCPUs {
		return false, fmt.Errorf("the reports come from different machines (cpus %d and %d, of which usable %d and %d): their figures cannot be compared",
			a.Env.CPUs, b.Env.CPUs, a.Env.UsableCPUs, b.Env.UsableCPUs)
	}
	ok := true
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-16s %-26s %-9s %14s %14s %9s %7s  %s\n", "workload", "metric", "unit", "a median", "b median", "change", "bound", "verdict")
	for _, name := range names {
		wa := a.Workloads[name]
		wb, found := b.Workloads[name]
		if !found {
			fmt.Fprintf(out, "%-16s missing from the second report\n", name)
			ok = false
			continue
		}
		wl, err := workloadByName(name)
		if err != nil {
			return false, err
		}
		for _, def := range bounds {
			v, worse := judge(def, wa.EndToEnd[def.Name], wb.EndToEnd[def.Name])
			switch {
			case !wl.native(def.Name):
				v = borrowed
			case v == regressed || v == missing:
				ok = false
			}
			fmt.Fprintf(out, "%-16s %-26s %-9s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", name, def.Name, def.Unit,
				wa.EndToEnd[def.Name].Median, wb.EndToEnd[def.Name].Median, 100*worse, 100*def.Bound, v)
		}
		v := unchanged
		if wb.FailedOpsShare > wa.FailedOpsShare {
			v, ok = regressed, false
		}
		fmt.Fprintf(out, "%-16s %-26s %-9s %14.6g %14.6g %9s %7s  %s\n", name, "failed_ops_share", "share", wa.FailedOpsShare, wb.FailedOpsShare, "", "0%", v)
	}
	return ok, nil
}
