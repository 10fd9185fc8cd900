package bus

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/trajectory"
)

func TestKeyedDelivery(t *testing.T) {
	b := New(Options{Shards: 4})
	sub := b.Subscribe(SubOptions{ID: "car-1"})
	b.Publish("car-1", trajectory.S(1, 2, 3))
	b.Publish("car-2", trajectory.S(1, 9, 9)) // different object: not delivered

	lines, open := sub.Drain(nil)
	if !open {
		t.Fatal("feed closed unexpectedly")
	}
	want := []string{"POS car-1 1 2 3"}
	if len(lines) != 1 || lines[0] != want[0] {
		t.Fatalf("Drain = %q, want %q", lines, want)
	}
	if sub.Policy() != DropNewest {
		t.Fatalf("default policy = %v, want drop-newest", sub.Policy())
	}
}

func TestWildcardSeesEveryShard(t *testing.T) {
	b := New(Options{Shards: 8})
	sub := b.Subscribe(SubOptions{ID: "*"})
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i, id := range ids {
		b.Publish(id, trajectory.S(float64(i), 0, 0))
	}
	got := map[string]bool{}
	for len(got) < len(ids) {
		lines, open := sub.Drain(nil)
		if !open {
			t.Fatal("feed closed early")
		}
		for _, l := range lines {
			got[strings.Fields(l)[1]] = true
		}
	}
}

func TestGeofenceFilters(t *testing.T) {
	box := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(10, 10)}
	b := New(Options{})
	sub := b.Subscribe(SubOptions{Box: &box})
	b.Publish("in", trajectory.S(1, 5, 5))
	b.Publish("out", trajectory.S(2, 50, 50))
	b.Publish("edge", trajectory.S(3, 10, 10))

	lines, _ := sub.Drain(nil)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "POS in ") || !strings.Contains(joined, "POS edge ") {
		t.Fatalf("missing inside-box deliveries: %q", lines)
	}
	if strings.Contains(joined, "POS out ") {
		t.Fatalf("position outside the box was delivered: %q", lines)
	}
}

// TestDropOldestDeliversNewest pins the drop-oldest contract: a lagging
// consumer converges on the newest positions, not a stale backlog.
func TestDropOldestDeliversNewest(t *testing.T) {
	b := New(Options{})
	sub := b.Subscribe(SubOptions{ID: "o", Policy: DropOldest, Capacity: 2})
	for i := 1; i <= 5; i++ {
		b.Publish("o", trajectory.S(float64(i), 0, 0))
	}
	lines, open := sub.Drain(nil)
	if !open {
		t.Fatal("drop-oldest must not close the feed")
	}
	want := []string{"POS o 4 0 0", "POS o 5 0 0"}
	if len(lines) != 2 || lines[0] != want[0] || lines[1] != want[1] {
		t.Fatalf("Drain = %q, want the two newest lines %q", lines, want)
	}
}

// TestDropNewestKeepsBacklog pins today's behaviour, the default policy:
// the buffered backlog survives and the overflowing lines are lost.
func TestDropNewestKeepsBacklog(t *testing.T) {
	b := New(Options{})
	sub := b.Subscribe(SubOptions{ID: "o", Policy: DropNewest, Capacity: 2})
	for i := 1; i <= 5; i++ {
		b.Publish("o", trajectory.S(float64(i), 0, 0))
	}
	lines, open := sub.Drain(nil)
	if !open {
		t.Fatal("drop-newest must not close the feed")
	}
	want := []string{"POS o 1 0 0", "POS o 2 0 0"}
	if len(lines) != 2 || lines[0] != want[0] || lines[1] != want[1] {
		t.Fatalf("Drain = %q, want the two oldest lines %q", lines, want)
	}
}

// TestDisconnectClosesFeed pins the disconnect contract: overflow ends the
// feed after the backlog drains.
func TestDisconnectClosesFeed(t *testing.T) {
	b := New(Options{})
	sub := b.Subscribe(SubOptions{ID: "o", Policy: Disconnect, Capacity: 2})
	for i := 1; i <= 3; i++ {
		b.Publish("o", trajectory.S(float64(i), 0, 0))
	}
	lines, open := sub.Drain(nil)
	if len(lines) != 2 {
		t.Fatalf("backlog = %q, want the 2 buffered lines", lines)
	}
	if !open {
		// Acceptable: backlog and closure may be reported together only
		// when the backlog is empty; with lines present open must be true.
		t.Fatalf("Drain returned open=false with a non-empty backlog")
	}
	lines, open = sub.Drain(nil)
	if open || len(lines) != 0 {
		t.Fatalf("after overflow Drain = (%q, %v), want closed empty feed", lines, open)
	}
	// Publishing after disconnect is a no-op.
	b.Publish("o", trajectory.S(9, 0, 0))
	if lines, open := sub.Drain(nil); open || len(lines) != 0 {
		t.Fatalf("closed feed accepted a publish: (%q, %v)", lines, open)
	}
}

// TestCompressorResetOnPushError is the regression test for the
// publishCompressed bug: a sample that violates the compressor's ordering
// contract must reset that object's compressor, so the feed re-compresses
// from the offending sample instead of degrading to raw relay forever.
func TestCompressorResetOnPushError(t *testing.T) {
	factory, err := stream.ParseFactory("operb:10")
	if err != nil {
		t.Fatal(err)
	}
	b := New(Options{})
	sub := b.Subscribe(SubOptions{ID: "o", NewComp: factory})

	b.Publish("o", trajectory.S(10, 0, 0)) // anchors the compressor at t=10
	lines, _ := sub.Drain(nil)
	if len(lines) != 1 || lines[0] != "POS o 10 0 0" {
		t.Fatalf("anchor delivery = %q", lines)
	}

	// Out of order: the feed restarted at an older timestamp (the failover
	// scenario). The broken compressor must be replaced and re-anchored on
	// this sample, which is delivered once.
	b.Publish("o", trajectory.S(5, 0, 0))
	lines, _ = sub.Drain(nil)
	if len(lines) != 1 || lines[0] != "POS o 5 0 0" {
		t.Fatalf("re-anchor delivery = %q, want [POS o 5 0 0]", lines)
	}

	// The next in-order samples must be COMPRESSED again: a straight run
	// emits nothing until the sharp corner at t=9 forces a cut, which
	// retains the corner's predecessor (t=8). The intermediates t=6, t=7
	// arriving would mean the feed degraded to raw relay.
	for i := 6; i <= 8; i++ {
		b.Publish("o", trajectory.S(float64(i), float64((i-5)*10), 0))
	}
	b.Publish("o", trajectory.S(9, 30, 1000))
	lines, _ = sub.Drain(nil)
	for _, l := range lines {
		if strings.HasPrefix(l, "POS o 6 ") || strings.HasPrefix(l, "POS o 7 ") {
			t.Fatalf("feed degraded to raw relay after the error: %q", lines)
		}
	}
	if len(lines) != 1 || lines[0] != "POS o 8 30 0" {
		t.Fatalf("post-reset compression = %q, want [POS o 8 30 0]", lines)
	}
}

// TestReleaseCompressors is the regression test for the unbounded comps
// map: eviction must release per-object compressor state on wildcard
// subscribers with a compression spec.
func TestReleaseCompressors(t *testing.T) {
	factory, err := stream.ParseFactory("opwtr:5")
	if err != nil {
		t.Fatal(err)
	}
	b := New(Options{})
	sub := b.Subscribe(SubOptions{ID: "*", NewComp: factory, Capacity: 4096})

	// A churning fleet: 100 objects each seen once.
	for i := 0; i < 100; i++ {
		b.Publish(string(rune('A'+i%26))+string(rune('a'+i/26)), trajectory.S(1, 0, 0))
	}
	if n := sub.CompCount(); n != 100 {
		t.Fatalf("CompCount = %d, want 100", n)
	}
	// Evict everything but two survivors.
	live := map[string]bool{"Aa": true, "Ba": true}
	b.ReleaseCompressors(func(id string) bool { return live[id] })
	if n := sub.CompCount(); n != 2 {
		t.Fatalf("CompCount after release = %d, want 2 (leak)", n)
	}
}

func TestUnsubscribeIdempotentAndGauge(t *testing.T) {
	r := metrics.NewRegistry()
	active := r.Gauge("bus_test_active")
	b := New(Options{Active: active})
	s1 := b.Subscribe(SubOptions{ID: "a"})
	s2 := b.Subscribe(SubOptions{ID: "*"})
	if got := active.Value(); got != 2 {
		t.Fatalf("active = %v, want 2", got)
	}
	b.Unsubscribe(s1)
	b.Unsubscribe(s1) // double-unsubscribe must not decrement twice
	if got := active.Value(); got != 1 {
		t.Fatalf("active after double unsubscribe = %v, want 1", got)
	}
	b.CloseAll()
	if got := active.Value(); got != 0 {
		t.Fatalf("active after CloseAll = %v, want 0", got)
	}
	if lines, open := s2.Drain(nil); open || len(lines) != 0 {
		t.Fatalf("CloseAll left a feed open: (%q, %v)", lines, open)
	}
}

func TestDropCounters(t *testing.T) {
	r := metrics.NewRegistry()
	opts := Options{DropsTotal: r.Counter("bus_test_drops")}
	for p := 0; p < NumPolicies; p++ {
		opts.PolicyDrops[p] = r.Counter("bus_test_policy_drops", metrics.L("policy", Policy(p).String()))
	}
	b := New(opts)
	b.Subscribe(SubOptions{ID: "o", Policy: DropOldest, Capacity: 1})
	for i := 1; i <= 4; i++ {
		b.Publish("o", trajectory.S(float64(i), 0, 0))
	}
	if got := opts.DropsTotal.Value(); got != 3 {
		t.Fatalf("total drops = %v, want 3", got)
	}
	if got := opts.PolicyDrops[DropOldest].Value(); got != 3 {
		t.Fatalf("drop-oldest drops = %v, want 3", got)
	}
	if got := opts.PolicyDrops[DropNewest].Value(); got != 0 {
		t.Fatalf("drop-newest drops = %v, want 0", got)
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for p := Policy(0); p < NumPolicies; p++ {
		got, ok := ParsePolicy(p.String())
		if !ok || got != p {
			t.Fatalf("ParsePolicy(%q) = (%v, %v), want (%v, true)", p.String(), got, ok, p)
		}
	}
	if _, ok := ParsePolicy("operb:10"); ok {
		t.Fatal("a compression spec must not parse as a policy")
	}
}

// TestUnsubscribeDuringPublishRace exercises registration churn racing the
// lock-free publish path; run with -race.
func TestUnsubscribeDuringPublishRace(t *testing.T) {
	b := New(Options{Shards: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			b.Publish("obj", trajectory.S(float64(i), 1, 2))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := "obj"
				if i%2 == 0 {
					id = "*"
				}
				sub := b.Subscribe(SubOptions{ID: id, Capacity: 8})
				b.Publish("obj", trajectory.S(float64(i), 0, 0))
				b.Unsubscribe(sub)
			}
		}()
	}
	// A consumer draining a feed that gets closed under it.
	sub := b.Subscribe(SubOptions{ID: "obj", Capacity: 8})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, open := sub.Drain(nil); !open {
				return
			}
		}
	}()
	b.Unsubscribe(sub)
	close(stop)
	wg.Wait()
}

// TestCloseAllDuringPublishRace exercises shutdown racing fan-out; run
// with -race.
func TestCloseAllDuringPublishRace(t *testing.T) {
	b := New(Options{Shards: 2})
	for i := 0; i < 16; i++ {
		id := "hot"
		if i%4 == 0 {
			id = "*"
		}
		b.Subscribe(SubOptions{ID: id, Capacity: 4, Policy: Policy(i % NumPolicies)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Publish("hot", trajectory.S(float64(g*1000+i), 0, 0))
			}
		}(g)
	}
	b.CloseAll()
	wg.Wait()
}

// TestPosLineMatchesSprintf is the golden test of the feed line: for seeded
// floats and the %g boundaries (±0, 1e21, 1e-5, 5e-324, 1e6) PosLine is
// byte-identical to the fmt.Sprintf it replaced.
func TestPosLineMatchesSprintf(t *testing.T) {
	vs := []float64{0, math.Copysign(0, -1), 1e21, -1e21, 1e20, 1e-5, 1e-4, 9.9999e-5, 5e-324, -5e-324,
		1e6, 999999, 1e6 - 0.5, 1e6 + 0.5, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		switch i % 3 {
		case 0:
			vs = append(vs, math.Float64frombits(rng.Uint64()))
		case 1:
			vs = append(vs, math.Round(rng.NormFloat64()*1e6)/100)
		default:
			vs = append(vs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
		}
	}
	for i := 0; i+2 < len(vs); i++ {
		s := trajectory.S(vs[i], vs[i+1], vs[i+2])
		id := "v00042"
		if i%7 == 0 {
			id = strings.Repeat("long-id-", 20) // past the stack buffer
		}
		if got, want := PosLine(id, s), fmt.Sprintf("POS %s %g %g %g", id, s.T, s.X, s.Y); got != want {
			t.Fatalf("PosLine = %q, fmt printed %q", got, want)
		}
	}
}
