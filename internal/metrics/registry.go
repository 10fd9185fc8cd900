package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// inf is the +Inf overflow-bucket bound of histogram snapshots.
var inf = math.Inf(1)

// Label is one name/value dimension of a metric (e.g. cmd="APPEND").
// Cardinality discipline is the caller's: label values must come from a
// small fixed set, never from user input.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{Key: k, Value: v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Kind discriminates the instrument behind a registry entry.
type Kind int

const (
	// KindCounter is a monotone counter.
	KindCounter Kind = iota
	// KindGauge is an instantaneous value.
	KindGauge
	// KindHistogram is a bucketed distribution.
	KindHistogram
)

// String returns the Prometheus type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// entry is one registered instrument.
type entry struct {
	name   string
	labels []Label // sorted by key
	kind   Kind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry is a named set of instruments. Lookups are get-or-create: asking
// twice for the same name and labels returns the same instrument, so
// subsystems can resolve their instruments independently and still share
// them. Registration takes a lock; the returned instruments update
// lock-free, so hot paths resolve once and hold the pointer.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	kinds   map[string]Kind // family name → kind, one kind per name
	started time.Time
}

// NewRegistry returns an empty registry. Its creation instant anchors
// Uptime.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		kinds:   make(map[string]Kind),
		started: time.Now(),
	}
}

// defaultRegistry is the process-wide registry used when a subsystem is not
// given an explicit one — the common single-server deployment.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Uptime reports how long ago the registry was created — the process
// uptime, for the default registry.
func (r *Registry) Uptime() time.Duration { return time.Since(r.started) }

// Counter returns the counter registered under name and labels, creating it
// on first use. It panics if the name is invalid or already registered as a
// different kind.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, KindCounter, nil, labels).c
}

// Gauge returns the gauge registered under name and labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.lookup(name, KindGauge, nil, labels).g
}

// Histogram returns the histogram registered under name and labels,
// creating it with the given bucket upper bounds on first use (nil bounds
// select DefBuckets). Later lookups ignore bounds and return the first
// registration.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	return r.lookup(name, KindHistogram, bounds, labels).h
}

func (r *Registry) lookup(name string, kind Kind, bounds []float64, labels []Label) *entry {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	ls := sortLabels(labels)
	key := entryKey(name, ls)

	r.mu.RLock()
	e := r.entries[key]
	r.mu.RUnlock()
	if e == nil {
		r.mu.Lock()
		e = r.entries[key]
		if e == nil {
			if have, ok := r.kinds[name]; ok && have != kind {
				r.mu.Unlock()
				panic(fmt.Sprintf("metrics: %q already registered as a %s, requested as %s", name, have, kind))
			}
			e = &entry{name: name, labels: ls, kind: kind}
			switch kind {
			case KindCounter:
				e.c = &Counter{}
			case KindGauge:
				e.g = &Gauge{}
			case KindHistogram:
				if bounds == nil {
					bounds = DefBuckets()
				}
				e.h = newHistogram(bounds)
			}
			r.kinds[name] = kind
			r.entries[key] = e
		}
		r.mu.Unlock()
	}
	if e.kind != kind {
		panic(fmt.Sprintf("metrics: %q already registered as a %s, requested as %s", name, e.kind, kind))
	}
	return e
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func sortLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

func entryKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// BucketCount is one histogram bucket of a snapshot: the count of
// observations ≤ UpperBound and above the previous bound (non-cumulative).
type BucketCount struct {
	UpperBound float64
	Count      int64
}

// MetricSnapshot is the point-in-time state of one instrument.
type MetricSnapshot struct {
	Name   string
	Labels []Label
	Kind   Kind

	// Value is the counter count or gauge value.
	Value float64

	// Histogram state; Buckets is empty for counters and gauges.
	Count   int64
	Sum     float64
	Buckets []BucketCount
}

// Snapshot captures every instrument, sorted by name then labels. Each
// instrument is read atomically; the set as a whole is not transactional
// (counters touched mid-snapshot may skew by an update — the usual
// monitoring contract).
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.RLock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	// Sort by name first so exposition families stay contiguous, then by
	// labels for determinism.
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.name != b.name {
			return a.name < b.name
		}
		return entryKey(a.name, a.labels) < entryKey(b.name, b.labels)
	})

	out := make([]MetricSnapshot, 0, len(entries))
	for _, e := range entries {
		m := MetricSnapshot{Name: e.name, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			m.Value = float64(e.c.Value())
		case KindGauge:
			m.Value = e.g.Value()
		case KindHistogram:
			h := e.h
			m.Count = h.Count()
			m.Sum = h.Sum()
			m.Buckets = make([]BucketCount, len(h.counts))
			for i := range h.counts {
				bound := inf
				if i < len(h.bounds) {
					bound = h.bounds[i]
				}
				m.Buckets[i] = BucketCount{UpperBound: bound, Count: h.counts[i].Load()}
			}
		}
		out = append(out, m)
	}
	return out
}
