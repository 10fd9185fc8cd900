package main

import "testing"

// metricValue decides the lag-shedding verdict of scripts/torture.sh --repl
// from a Prometheus text exposition.
func TestMetricValue(t *testing.T) {
	const text = `# HELP repl_sheds_total followers disconnected for lagging
# TYPE repl_sheds_total counter
repl_sheds_total{reason="lag"} 7
repl_sheds_total 2
repl_sheds_total_bytes 4096
repl_lag_records 1.5e+03
`
	for _, c := range []struct {
		name string
		want float64
	}{
		{"repl_sheds_total", 2}, // not the labelled series above it, nor the HELP/TYPE lines
		{"repl_sheds", 0},       // a prefix of a name is not that name
		{"repl_sheds_total_bytes", 4096},
		{"repl_lag_records", 1500},
		{"repl_absent_total", 0},
	} {
		if got := metricValue(text, c.name); got != c.want {
			t.Errorf("metricValue(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}
