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

// A distribution spread uniformly inside one bucket is recovered exactly by
// linear interpolation: with k observations filling bucket (10, 20], the
// q-quantile is 10 + 10·q.
func TestHistogramQuantileExactWithinBucket(t *testing.T) {
	h := newHistogram([]float64{10, 20, 30})
	const k = 100
	for i := 0; i < k; i++ {
		h.Observe(10.05 + float64(i)*0.099) // all in (10, 20]
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		want := 10 + 10*q
		if got := h.Quantile(q); math.Abs(got-want) > 0.2 {
			t.Errorf("Quantile(%v) = %v, want ≈ %v", q, got, want)
		}
	}
}

// Exact rank arithmetic across several buckets: 5 observations ≤ 10, then
// 5 in (10, 20]. The median rank 5 lands exactly on the first bucket's
// upper edge; the 0.75-rank (7.5) is halfway through the second bucket.
func TestHistogramQuantileAcrossBuckets(t *testing.T) {
	h := newHistogram([]float64{10, 20})
	for i := 0; i < 5; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	if got := h.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Errorf("p50 = %v, want 10", got)
	}
	// rank 7.5 → 2.5 of 5 observations into (10, 15] (upper clamped by the
	// tracked max 15): 10 + 5·(2.5/5) = 12.5.
	if got := h.Quantile(0.75); math.Abs(got-12.5) > 1e-9 {
		t.Errorf("p75 = %v, want 12.5", got)
	}
	if got := h.Quantile(1); math.Abs(got-15) > 1e-9 {
		t.Errorf("p100 = %v, want the max 15", got)
	}
}

func TestHistogramOverflowBucketReportsMax(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(0.5)
	h.Observe(7)
	h.Observe(9)
	if got := h.Quantile(0.99); math.Abs(got-9) > 1e-9 {
		t.Errorf("p99 = %v, want the tracked max 9", got)
	}
	if got := h.Max(); math.Abs(got-9) > 1e-9 {
		t.Errorf("Max = %v, want 9", got)
	}
}

func TestHistogramQuantileMonotoneAcrossBuckets(t *testing.T) {
	h := newHistogram(DefBuckets())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Observe(math.Exp(rng.NormFloat64()*2 - 6)) // lognormal latencies
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		cur := h.Quantile(q)
		if math.IsNaN(cur) || cur < prev {
			t.Fatalf("Quantile(%v) = %v < previous %v: not monotone", q, cur, prev)
		}
		prev = cur
	}
	if max := h.Max(); prev > max {
		t.Errorf("Quantile(1) = %v exceeds Max %v", prev, max)
	}
}

func TestHistogramEmptyAndDegenerate(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %v, want NaN", got)
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 0 {
		t.Error("NaN observation was counted")
	}
	h.Observe(-5) // clamped to 0
	if got := h.Quantile(0.5); got < 0 || got > 1 {
		t.Errorf("clamped observation quantile = %v, want within first bucket", got)
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
				_ = h.Quantile(0.99)
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
