package main

import (
	"context"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func run(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, "go", append([]string{"run", "."}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("experiments %v: %v\n%s", args, err, out)
	}
	return strings.TrimSpace(string(out))
}

// The binary EXPERIMENTS.md is regenerated with: -run verify checks every
// claim of the paper against the regenerated figures and exits 0 only if all
// hold.
func TestVerifyReproducesEveryPaperClaim(t *testing.T) {
	out := run(t, "-run", "verify")
	if !strings.HasSuffix(out, "all paper claims reproduced") {
		t.Errorf("-run verify ends with:\n%s", out[max(0, len(out)-400):])
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("-run verify reports a failed claim:\n%s", out)
	}
}

func TestTable2PrintsTheFiveStatisticsOfTenTrajectories(t *testing.T) {
	lines := strings.Split(run(t, "-run", "table2"), "\n")
	if !strings.Contains(lines[0], "10 moving object trajectories") {
		t.Errorf("title %q", lines[0])
	}
	var stats []string
	for _, line := range lines[2:] {
		name, _, _ := strings.Cut(line, "  ")
		stats = append(stats, name)
	}
	if got, want := strings.Join(stats, ","), "duration,speed,length,displacement,# of data points"; got != want {
		t.Errorf("rows %q, want %q", got, want)
	}
}
