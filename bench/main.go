// Command bench is the repository's benchmark: four seeded wire-level
// workloads against a real trajserver child process for the end-to-end
// metrics, and a traced replay of the same workloads against an in-process
// stack for the per-layer metrics. BENCHMARK.json at the repository root
// names the metrics and their bounds; README.md in this directory explains
// them.
//
// Usage (from the repository root; bench/run.sh builds both binaries into
// .bench_build/ first):
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run; the last line of standard output is one JSON object
//	bash bench/run.sh [-reps 3] [-seed 1] [-seconds 10] [-trace 1] [-out file]
//	    every workload -reps times: median, min–max and sample count of every
//	    metric, with an environment block; exits 1 if any output check fails
//	bash bench/run.sh -smoke
//	    tiny sizes, one rep, all workloads, traced run and every output check
//	bash bench/run.sh -compare a.json b.json
//	    apply BENCHMARK.json's bounds to two -out files
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that deferred clean-up runs first.
func run() int {
	var (
		workloadName = flag.String("workload", "", "run this one workload once and print one JSON result line (driver mode)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds      = flag.Float64("seconds", 10, "run length the fixed work is sized for")
		traceFlag    = flag.String("trace", "0", "driver mode: 0 = end-to-end metrics, 1 = per-layer metrics; suite mode: 1 adds the traced runs")
		reps         = flag.Int("reps", 3, "suite mode: end-to-end repetitions per workload")
		smoke        = flag.Bool("smoke", false, "tiny sizes, one rep, every workload and check, traced run included, no bounds asserted")
		out          = flag.String("out", "", "suite mode: write the JSON report here")
		compare      = flag.Bool("compare", false, "compare two suite reports: -compare a.json b.json")
		serverBin    = flag.String("server-bin", "", "prebuilt trajserver binary (default: build one into a temp dir)")
		spans        = flag.String("spans", "", "traced run: write the span dump (CSV) here")
		printSpec    = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as spec.go defines it and exit")
	)
	flag.Parse()
	if *printSpec {
		b, err := benchmarkJSONText(int(*seconds))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		_, _ = os.Stdout.Write(b) // a failed write to stdout has nowhere to be reported
		return 0
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := pinToOneCPU(); err != nil {
		return fail(err)
	}
	traced, err := strconv.ParseBool(*traceFlag)
	if err != nil {
		return fail(fmt.Errorf("-trace %q: want 0 or 1", *traceFlag))
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}

	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("usage: -compare a.json b.json"))
		}
		bounds, err := readBounds(root)
		if err != nil {
			return fail(err)
		}
		a, err := readReport(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readReport(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		ok, err := compareReports(os.Stdout, bounds, a, b)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	// Everything the run writes lives in one temp dir inside the checkout,
	// removed on every exit path, signals included.
	tmpRoot := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return fail(err)
	}
	work, err := os.MkdirTemp(tmpRoot, "bench-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		_ = os.RemoveAll(work) // best effort on the way out
		os.Exit(130)
	}()

	bin := *serverBin
	if bin == "" {
		bin = filepath.Join(work, "trajserver")
		if err := buildServer(root, bin); err != nil {
			return fail(err)
		}
	}
	if *workloadName != "" {
		w, err := workloadByName(*workloadName)
		if err != nil {
			return fail(err)
		}
		cfg := runConfig{w: w, seed: *seed, seconds: *seconds, smoke: *smoke, serverBin: bin, tmpRoot: work, progress: os.Stderr}
		if *smoke {
			cfg.seconds = min(cfg.seconds, smokeSeconds)
		}
		var res *runResult
		defs := endToEnd
		if traced {
			defs = perLayerDefs()
			var direct map[string]float64
			res, err = runTraced(cfg, *spans, &direct)
		} else {
			res, err = runEndToEnd(cfg)
		}
		if err == nil {
			err = printDriverLine(res, defs)
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}

	cfg := suiteConfig{
		root: root, seed: *seed, seconds: *seconds, reps: *reps, smoke: *smoke, traced: traced,
		serverBin: bin, tmpRoot: work, spans: *spans, progress: os.Stderr,
	}
	if *smoke {
		cfg.reps, cfg.traced, cfg.seconds = 1, true, min(cfg.seconds, smokeSeconds)
	}
	rep, ok, err := runSuite(cfg, os.Stdout)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			return fail(err)
		}
	}
	if !ok {
		return fail(errors.New("output checks failed"))
	}
	return 0
}

// findRoot locates the repository root — the directory holding
// BENCHMARK.json — from the working directory upward, so the command works
// from the root (run.sh) and from bench/ (go run, go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "trajserver")); err == nil {
				return dir, nil
			}
			return "", fmt.Errorf("%s holds BENCHMARK.json but not the repository (cmd/trajserver is missing)", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/trajserver from the checkout's own source.
func buildServer(root, bin string) error {
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/trajserver")
	cmd.Dir = root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building trajserver: %w\n%s", err, outp)
	}
	return nil
}
