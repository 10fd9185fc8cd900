package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders snapshots in the Prometheus text exposition
// format (version 0.0.4): a # TYPE header per metric family, counters and
// gauges as single samples, histograms as cumulative _bucket series plus
// _sum and _count. Write errors surface through the writer (callers flush
// buffered writers and check there), matching the server's protocol writer
// convention.
func WritePrometheus(w io.Writer, snaps []MetricSnapshot) {
	lastName := ""
	for _, m := range snaps {
		if m.Name != lastName {
			fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind)
			lastName = m.Name
		}
		switch m.Kind {
		case KindHistogram:
			cum := int64(0)
			for _, b := range m.Buckets {
				cum += b.Count
				fmt.Fprintf(w, "%s_bucket%s %d\n",
					m.Name, labelString(m.Labels, formatBound(b.UpperBound)), cum)
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, labelString(m.Labels, ""), formatValue(m.Sum))
			fmt.Fprintf(w, "%s_count%s %d\n", m.Name, labelString(m.Labels, ""), m.Count)
		default:
			fmt.Fprintf(w, "%s%s %s\n", m.Name, labelString(m.Labels, ""), formatValue(m.Value))
		}
	}
}

// labelString renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound label. Returns "" for no labels.
func labelString(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

func formatValue(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry's Prometheus
// exposition — mount it at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, r.Snapshot())
	})
}
