package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// driverMetric is one value of the driver's result line.
type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints the one-line JSON result the benchmark driver
// reads: exactly the metrics of defs, each as measured. Failure messages go
// to standard error.
func printDriverLine(res *runResult, defs []metricDef) error {
	line := struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]driverMetric `json:"metrics"`
	}{
		Correct:   res.Failed == 0,
		Attempted: max(1, res.Attempted),
		Failed:    res.Failed,
		Metrics:   make(map[string]driverMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.Values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = driverMetric{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
	}
	fmt.Println(string(b))
	return nil
}

// environment is the block every report carries: a figure without the
// machine it came from cannot be compared with anything.
type environment struct {
	CPUs       int                       `json:"cpus"`        // online on the machine
	UsableCPUs int                       `json:"usable_cpus"` // the benchmark and its server are confined to these: 1 once pinned
	GOMAXPROCS int                       `json:"gomaxprocs"`  // the generator's; the server starts with its default
	GoVersion  string                    `json:"go_version"`
	Commit     string                    `json:"git_commit"`
	Kernel     string                    `json:"kernel"`
	Seed       int64                     `json:"seed"`
	Reps       int                       `json:"reps"`
	Seconds    float64                   `json:"seconds"`
	Smoke      bool                      `json:"smoke,omitempty"`
	Sizes      map[string]map[string]int `json:"sizes"` // per workload
}

func readEnvironment(root string, seed int64, reps int, seconds float64, smoke bool) environment {
	env := environment{
		CPUs: boxCPUs(), UsableCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Kernel: "unknown",
		Seed: seed, Reps: reps, Seconds: seconds, Smoke: smoke,
		Sizes: map[string]map[string]int{},
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil { // not a git checkout: stays "unknown"
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil { // not Linux: stays "unknown"
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// metricSummary is one metric of one workload over the suite's repetitions.
type metricSummary struct {
	Unit       string    `json:"unit"`
	Median     float64   `json:"median"`
	Min        float64   `json:"min"`
	Max        float64   `json:"max"`
	Samples    int       `json:"samples"` // raw samples behind one run's figure
	Runs       []float64 `json:"runs"`
	Ineligible bool      `json:"ineligible,omitempty"` // fewer than 10 samples beyond the percentile in some window
}

// workloadReport is one workload's part of the suite report.
type workloadReport struct {
	Why            string                   `json:"why"`
	EndToEnd       map[string]metricSummary `json:"end_to_end"`
	PerLayer       map[string]metricSummary `json:"per_layer,omitempty"`
	Attempted      int                      `json:"attempted"`
	Failed         int                      `json:"failed"`
	FailedOpsShare float64                  `json:"failed_ops_share"`
	Failures       []string                 `json:"failures,omitempty"`
}

// suiteReport is what -out writes and -compare reads.
type suiteReport struct {
	Env       environment               `json:"env"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// summarize folds the runs of one workload into per-metric summaries.
func summarize(defs []metricDef, runs []*runResult) map[string]metricSummary {
	out := make(map[string]metricSummary, len(defs))
	for _, d := range defs {
		sum := metricSummary{Unit: d.Unit}
		for _, r := range runs {
			v, ok := r.Values[d.Name]
			if !ok {
				continue
			}
			sum.Runs = append(sum.Runs, v)
			sum.Samples = r.Counts[d.Name]
			for _, name := range r.Ineligible {
				if name == d.Name {
					sum.Ineligible = true
				}
			}
		}
		if len(sum.Runs) == 0 {
			continue
		}
		sum.Median = medianFloat(sum.Runs)
		sum.Min, sum.Max = minMax(sum.Runs)
		out[d.Name] = sum
	}
	return out
}

// printTable prints one workload's metrics by name with unit, median,
// min–max and sample count. wl marks the end-to-end cells that are borrowed
// from another workload's run; it is nil for the per-layer table.
func printTable(w io.Writer, title string, defs []metricDef, sums map[string]metricSummary, wl *workload) {
	fmt.Fprintf(w, "%s\n  %-44s %-9s %14s %14s %14s %9s\n", title, "metric", "unit", "median", "min", "max", "samples")
	for _, d := range defs {
		s, ok := sums[d.Name]
		if !ok {
			continue
		}
		note := ""
		if wl != nil && !wl.native(d.Name) {
			note = "  (borrowed)"
		}
		if s.Ineligible {
			note += "  (<10 samples beyond the percentile)"
		}
		samples := "-"
		if s.Samples > 0 {
			samples = fmt.Sprint(s.Samples)
		}
		fmt.Fprintf(w, "  %-44s %-9s %14.6g %14.6g %14.6g %9s%s\n", d.Name, s.Unit, s.Median, s.Min, s.Max, samples, note)
	}
}

// printEnvironment prints the environment block for a human.
func printEnvironment(w io.Writer, env environment) {
	fmt.Fprintf(w, "environment: cpus=%d usable_cpus=%d GOMAXPROCS=%d %s commit=%s kernel=%s seed=%d reps=%d seconds=%g\n",
		env.CPUs, env.UsableCPUs, env.GOMAXPROCS, env.GoVersion, env.Commit, env.Kernel, env.Seed, env.Reps, env.Seconds)
	names := make([]string, 0, len(env.Sizes))
	for name := range env.Sizes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		keys := make([]string, 0, len(env.Sizes[name]))
		for k := range env.Sizes[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%d", k, env.Sizes[name][k])
		}
		fmt.Fprintf(w, "  sizes %s: %s\n", name, strings.Join(parts, " "))
	}
}

// suiteConfig is one invocation of the whole benchmark.
type suiteConfig struct {
	root      string
	seed      int64
	seconds   float64
	reps      int
	smoke     bool
	traced    bool
	serverBin string
	tmpRoot   string
	spans     string
	progress  io.Writer
}

// runSuite runs every workload reps times end to end, then once traced when
// asked, prints every metric and returns the report. ok is false if any
// command or output check failed.
func runSuite(cfg suiteConfig, out io.Writer) (rep suiteReport, ok bool, err error) {
	rep = suiteReport{
		Env:       readEnvironment(cfg.root, cfg.seed, cfg.reps, cfg.seconds, cfg.smoke),
		Workloads: map[string]workloadReport{},
	}
	ok = true
	var direct map[string]float64 // the direct-call layer metrics, measured by the first traced run
	for i := range workloads {
		w := &workloads[i]
		rc := runConfig{w: w, seed: cfg.seed, seconds: cfg.seconds, smoke: cfg.smoke, serverBin: cfg.serverBin, tmpRoot: cfg.tmpRoot, progress: cfg.progress}
		wr := workloadReport{Why: w.Why}
		var runs []*runResult
		for r := 0; r < cfg.reps; r++ {
			res, err := runEndToEnd(rc)
			if err != nil {
				return rep, false, fmt.Errorf("%s, rep %d: %w", w.Name, r+1, err)
			}
			runs = append(runs, res)
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Failures = append(wr.Failures, res.Failures...)
			rep.Env.Sizes[w.Name] = res.Sizes
		}
		wr.EndToEnd = summarize(endToEnd, runs)
		if cfg.traced {
			spans := ""
			if cfg.spans != "" {
				spans = strings.TrimSuffix(cfg.spans, ".csv") + "." + w.Name + ".csv"
			}
			res, err := runTraced(rc, spans, &direct)
			if err != nil {
				return rep, false, fmt.Errorf("%s, traced: %w", w.Name, err)
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Failures = append(wr.Failures, res.Failures...)
			wr.PerLayer = summarize(perLayerDefs(), []*runResult{res})
		}
		wr.FailedOpsShare = float64(wr.Failed) / float64(max(1, wr.Attempted))
		rep.Workloads[w.Name] = wr
		if wr.Failed > 0 {
			ok = false
		}

		printTable(out, fmt.Sprintf("== %s: end to end, %d reps", w.Name, cfg.reps), endToEnd, wr.EndToEnd, w)
		fmt.Fprintf(out, "  %-44s %-9s %14.6g   (%d failed of %d attempted)\n", "failed_ops_share", "share", wr.FailedOpsShare, wr.Failed, wr.Attempted)
		if cfg.traced {
			printTable(out, fmt.Sprintf("== %s: per layer, traced first quarter", w.Name), perLayerDefs(), wr.PerLayer, nil)
		}
		for _, f := range wr.Failures {
			fmt.Fprintln(out, "  FAILED:", f)
		}
	}
	printEnvironment(out, rep.Env)
	return rep, ok, nil
}

func writeReport(path string, rep suiteReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (suiteReport, error) {
	var rep suiteReport
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
