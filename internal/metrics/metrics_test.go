package metrics

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-7) // counters are monotone: negative adds are ignored
	if got := c.Value(); got != 42 {
		t.Errorf("Value = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	g.Inc()
	g.Dec()
	g.Add(-1)
	if got := g.Value(); got != 3 {
		t.Errorf("Value = %v, want 3", got)
	}
}

// bucketCounts reads h's per-bucket (non-cumulative) counts, the +Inf
// bucket last.
func bucketCounts(h *Histogram) []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

func sameCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A bucket counts the observations ≤ its bound and above the previous one
// (Prometheus "le"), so an observation on a bound lands in that bound's
// bucket. Quantiles are read off these counts by the scraper, so the
// counts across buckets are what must be exact.
func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	h := newHistogram([]float64{10, 20})
	for i := 0; i < 5; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if got, want := bucketCounts(h), []int64{5, 5, 0}; !sameCounts(got, want) {
		t.Errorf("bucket counts %v, want %v", got, want)
	}
	for _, v := range []float64{10, 10.5, 20} {
		h.Observe(v)
	}
	if got, want := bucketCounts(h), []int64{6, 7, 0}; !sameCounts(got, want) {
		t.Errorf("bucket counts with on-bound observations %v, want %v", got, want)
	}
	if h.Count() != 13 {
		t.Errorf("Count = %d, want 13", h.Count())
	}
}

// An observation above the last bound lands in the +Inf bucket, and its
// full value still reaches the sum.
func TestHistogramOverflowBucketReportsMax(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(0.5)
	h.Observe(7)
	h.Observe(9)
	if got, want := bucketCounts(h), []int64{1, 2}; !sameCounts(got, want) {
		t.Errorf("bucket counts %v, want %v", got, want)
	}
	if math.Abs(h.Sum()-16.5) > 1e-12 {
		t.Errorf("Sum = %v, want 16.5", h.Sum())
	}
}

func TestHistogramEmptyAndDegenerate(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if got := bucketCounts(h); !sameCounts(got, []int64{0, 0, 0}) {
		t.Errorf("empty histogram buckets %v, want all zero", got)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 0 {
		t.Error("NaN observation was counted")
	}
	h.Observe(-5) // clamped to 0
	if got := bucketCounts(h); !sameCounts(got, []int64{1, 0, 0}) {
		t.Errorf("clamped observation buckets %v, want it in the first bucket", got)
	}
	if h.Sum() != 0 {
		t.Errorf("Sum = %v, want 0 after clamping", h.Sum())
	}
}

func TestHistogramSumCountObserveSince(t *testing.T) {
	h := newHistogram(DefBuckets())
	h.Observe(0.25)
	h.Observe(0.75)
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2", h.Count())
	}
	if math.Abs(h.Sum()-1.0) > 1e-12 {
		t.Errorf("Sum = %v, want 1", h.Sum())
	}
	h.ObserveSince(time.Now().Add(-time.Millisecond))
	if h.Count() != 3 || h.Sum() < 1 {
		t.Errorf("ObserveSince not recorded: count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("requests_total", L("cmd", "GET"))
	b := r.Counter("requests_total", L("cmd", "GET"))
	if a != b {
		t.Error("same name+labels did not return the same counter")
	}
	c := r.Counter("requests_total", L("cmd", "PUT"))
	if a == c {
		t.Error("different labels returned the same counter")
	}
	if r.Gauge("occupancy") == nil || r.Histogram("latency_seconds", nil) == nil {
		t.Fatal("gauge/histogram lookup failed")
	}

	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("requests_total")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid name did not panic")
		}
	}()
	NewRegistry().Counter("bad-name")
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Gauge("a_level").Set(1.5)
	r.Histogram("c_seconds", []float64{1, 2}).Observe(0.5)
	snaps := r.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("Snapshot has %d entries, want 3", len(snaps))
	}
	if snaps[0].Name != "a_level" || snaps[1].Name != "b_total" || snaps[2].Name != "c_seconds" {
		t.Errorf("snapshot order: %s, %s, %s", snaps[0].Name, snaps[1].Name, snaps[2].Name)
	}
	if snaps[0].Value != 1.5 || snaps[1].Value != 2 {
		t.Errorf("snapshot values: %v, %v", snaps[0].Value, snaps[1].Value)
	}
	h := snaps[2]
	if h.Count != 1 || len(h.Buckets) != 3 || !math.IsInf(h.Buckets[2].UpperBound, 1) {
		t.Errorf("histogram snapshot: count=%d buckets=%v", h.Count, h.Buckets)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("cmds_total", L("cmd", "APPEND")).Add(3)
	r.Counter("cmds_total", L("cmd", "QUERY")).Add(1)
	h := r.Histogram("lat_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	WritePrometheus(&b, r.Snapshot())
	got := b.String()

	for _, want := range []string{
		"# TYPE cmds_total counter\n",
		`cmds_total{cmd="APPEND"} 3` + "\n",
		`cmds_total{cmd="QUERY"} 1` + "\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.1"} 1` + "\n",
		`lat_seconds_bucket{le="1"} 2` + "\n",
		`lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"lat_seconds_sum 5.55\n",
		"lat_seconds_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q in:\n%s", want, got)
		}
	}
	if strings.Count(got, "# TYPE cmds_total") != 1 {
		t.Error("family TYPE header repeated")
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}

func TestEscapeLabel(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("k", "a\"b\\c\nd")).Inc()
	var b strings.Builder
	WritePrometheus(&b, r.Snapshot())
	if !strings.Contains(b.String(), `{k="a\"b\\c\nd"}`) {
		t.Errorf("label not escaped:\n%s", b.String())
	}
}

// The concurrency hammer: parallel writers on shared instruments plus
// concurrent snapshots, meaningful under -race (scripts/check.sh runs it).
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	g := r.Gauge("occupancy")
	h := r.Histogram("lat_seconds", nil)

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(rng.Float64())
				// Registration races with lookups of the same instruments.
				if r.Counter("ops_total") != c {
					t.Error("counter identity changed under concurrency")
					return
				}
			}
		}(int64(w))
	}
	// Concurrent readers while the writers run.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %v, want 0", got)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	sum := int64(0)
	for _, b := range mustHistogramSnapshot(t, r, "lat_seconds").Buckets {
		sum += b.Count
	}
	if sum != workers*perWorker {
		t.Errorf("bucket counts sum to %d, want %d", sum, workers*perWorker)
	}
}

func mustHistogramSnapshot(t *testing.T, r *Registry, name string) MetricSnapshot {
	t.Helper()
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("metric %s not in snapshot", name)
	return MetricSnapshot{}
}
