package trajectory

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func line(n int) Trajectory {
	// Constant-speed eastward motion: 1 sample/s, 10 m/s.
	p := make(Trajectory, n)
	for i := range p {
		p[i] = S(float64(i), float64(i)*10, 0)
	}
	return p
}

func TestValidate(t *testing.T) {
	if err := line(5).Validate(); err != nil {
		t.Errorf("valid trajectory rejected: %v", err)
	}
	if err := (Trajectory{}).Validate(); err != nil {
		t.Errorf("empty trajectory rejected: %v", err)
	}
	bad := Trajectory{S(0, 0, 0), S(0, 1, 1)}
	if err := bad.Validate(); !errors.Is(err, ErrUnsorted) {
		t.Errorf("duplicate timestamp: got %v, want ErrUnsorted", err)
	}
	bad = Trajectory{S(1, 0, 0), S(0, 1, 1)}
	if err := bad.Validate(); !errors.Is(err, ErrUnsorted) {
		t.Errorf("decreasing timestamp: got %v, want ErrUnsorted", err)
	}
	bad = Trajectory{S(0, math.NaN(), 0)}
	if err := bad.Validate(); !errors.Is(err, ErrNotFinite) {
		t.Errorf("NaN coordinate: got %v, want ErrNotFinite", err)
	}
	if _, err := New([]Sample{S(1, 0, 0), S(0, 0, 0)}); err == nil {
		t.Error("New accepted invalid samples")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on invalid input")
		}
	}()
	MustNew([]Sample{S(1, 0, 0), S(0, 0, 0)})
}

func TestBasicMeasures(t *testing.T) {
	p := line(11) // 0..10 s, 0..100 m straight east
	if got := p.Duration(); got != 10 {
		t.Errorf("Duration = %v, want 10", got)
	}
	if got := p.Length(); !almostEq(got, 100, 1e-9) {
		t.Errorf("Length = %v, want 100", got)
	}
	if got := p.Displacement(); !almostEq(got, 100, 1e-9) {
		t.Errorf("Displacement = %v, want 100", got)
	}
	if got := p.AvgSpeed(); !almostEq(got, 10, 1e-9) {
		t.Errorf("AvgSpeed = %v, want 10", got)
	}
	if got := p.SegmentSpeed(3); !almostEq(got, 10, 1e-9) {
		t.Errorf("SegmentSpeed = %v, want 10", got)
	}
}

func TestMeasuresDegenerate(t *testing.T) {
	for _, p := range []Trajectory{nil, {S(0, 1, 2)}} {
		if p.Duration() != 0 || p.Length() != 0 || p.Displacement() != 0 || p.AvgSpeed() != 0 {
			t.Errorf("degenerate trajectory %v has non-zero measures", p)
		}
	}
}

func TestDisplacementVsLength(t *testing.T) {
	// An L-shaped path: length exceeds displacement.
	p := MustNew([]Sample{S(0, 0, 0), S(10, 100, 0), S(20, 100, 100)})
	if p.Length() <= p.Displacement() {
		t.Errorf("Length %v should exceed Displacement %v", p.Length(), p.Displacement())
	}
	if !almostEq(p.Length(), 200, 1e-9) || !almostEq(p.Displacement(), math.Sqrt(2)*100, 1e-9) {
		t.Errorf("Length=%v Displacement=%v", p.Length(), p.Displacement())
	}
}

func TestLocAt(t *testing.T) {
	p := line(11)
	tests := []struct {
		t      float64
		want   geo.Point
		wantOK bool
	}{
		{0, geo.Pt(0, 0), true},
		{10, geo.Pt(100, 0), true},
		{2.5, geo.Pt(25, 0), true},
		{-1, geo.Point{}, false},
		{10.5, geo.Point{}, false},
		{math.NaN(), geo.Point{}, false}, // arrives over the wire: POSITION a NaN
	}
	for _, tc := range tests {
		got, ok := p.LocAt(tc.t)
		if ok != tc.wantOK {
			t.Errorf("LocAt(%v) ok = %v, want %v", tc.t, ok, tc.wantOK)
			continue
		}
		if ok && !got.AlmostEqual(tc.want, 1e-9) {
			t.Errorf("LocAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestLocAtSingleSample(t *testing.T) {
	p := Trajectory{S(5, 1, 2)}
	if got, ok := p.LocAt(5); !ok || !got.Equal(geo.Pt(1, 2)) {
		t.Errorf("LocAt(5) = %v, %v", got, ok)
	}
	if _, ok := p.LocAt(6); ok {
		t.Error("LocAt outside single sample answered")
	}
}

func TestLocAtExactVertices(t *testing.T) {
	p := MustNew([]Sample{S(0, 0, 0), S(1, 10, 0), S(4, 10, 30)})
	for _, s := range p {
		got, ok := p.LocAt(s.T)
		if !ok || !got.AlmostEqual(s.Pos(), 1e-9) {
			t.Errorf("LocAt(%v) = %v, %v; want %v", s.T, got, ok, s.Pos())
		}
	}
}

func TestSegmentIndexAt(t *testing.T) {
	p := MustNew([]Sample{S(0, 0, 0), S(1, 1, 0), S(3, 3, 0), S(7, 7, 0)})
	tests := []struct {
		t      float64
		want   int
		wantOK bool
	}{
		{0, 0, true}, {0.5, 0, true}, {1, 0, true},
		{2, 1, true}, {3, 1, true}, {5, 2, true}, {7, 2, true},
		{-0.1, 0, false}, {7.1, 0, false}, {math.NaN(), 0, false},
	}
	for _, tc := range tests {
		got, ok := p.SegmentIndexAt(tc.t)
		if ok != tc.wantOK || (ok && got != tc.want) {
			t.Errorf("SegmentIndexAt(%v) = %d, %v; want %d, %v", tc.t, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestSub(t *testing.T) {
	p := line(10)
	s := p.Sub(2, 5)
	if s.Len() != 4 || s[0] != p[2] || s[3] != p[5] {
		t.Errorf("Sub(2,5) = %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("Sub out of range did not panic")
		}
	}()
	p.Sub(5, 2)
}

func TestTimeSlice(t *testing.T) {
	p := line(11)
	s := p.TimeSlice(2.5, 7.5)
	if err := s.Validate(); err != nil {
		t.Fatalf("TimeSlice result invalid: %v", err)
	}
	if s[0].T != 2.5 || s[len(s)-1].T != 7.5 {
		t.Errorf("TimeSlice bounds = %v..%v", s[0].T, s[len(s)-1].T)
	}
	if got, _ := Trajectory(s).LocAt(2.5); !got.AlmostEqual(geo.Pt(25, 0), 1e-9) {
		t.Errorf("interpolated start = %v", got)
	}
	// Whole-range slice reproduces the trajectory.
	whole := p.TimeSlice(0, 10)
	if whole.Len() != p.Len() {
		t.Errorf("whole TimeSlice has %d points, want %d", whole.Len(), p.Len())
	}
	// Disjoint window.
	if got := p.TimeSlice(20, 30); got != nil {
		t.Errorf("disjoint TimeSlice = %v, want nil", got)
	}
	if got := p.TimeSlice(7, 2); got != nil {
		t.Errorf("inverted TimeSlice = %v, want nil", got)
	}
}

func TestIsVertexSubsetOf(t *testing.T) {
	p := line(10)
	sub := Trajectory{p[0], p[3], p[9]}
	if !sub.IsVertexSubsetOf(p) {
		t.Error("true subset rejected")
	}
	if !(Trajectory{}).IsVertexSubsetOf(p) {
		t.Error("empty subset rejected")
	}
	notSub := Trajectory{p[3], p[0]} // wrong order
	if notSub.IsVertexSubsetOf(p) {
		t.Error("out-of-order sequence accepted")
	}
	modified := Trajectory{S(0, 0.001, 0)}
	if modified.IsVertexSubsetOf(p) {
		t.Error("modified sample accepted")
	}
}

func TestResample(t *testing.T) {
	p := line(11)
	r := p.Resample(2.5)
	if err := r.Validate(); err != nil {
		t.Fatalf("resampled invalid: %v", err)
	}
	if r[0].T != 0 || r[len(r)-1].T != 10 {
		t.Errorf("resample bounds %v..%v", r[0].T, r[len(r)-1].T)
	}
	for _, s := range r {
		want, _ := p.LocAt(s.T)
		if !s.Pos().AlmostEqual(want, 1e-9) {
			t.Errorf("resampled point %v off the path (want %v)", s, want)
		}
	}
	if p.Resample(0) != nil || (Trajectory{S(0, 0, 0)}).Resample(1) != nil {
		t.Error("degenerate Resample should return nil")
	}
}

func TestShiftAndClone(t *testing.T) {
	p := line(3)
	q := p.Shift(100, 5, -5)
	if q[0] != S(100, 5, -5) || q[2] != S(102, 25, -5) {
		t.Errorf("Shift = %v", q)
	}
	c := p.Clone()
	c[0].X = 999
	if p[0].X == 999 {
		t.Error("Clone shares storage")
	}
}

func TestBounds(t *testing.T) {
	p := MustNew([]Sample{S(0, -5, 3), S(1, 10, -2), S(2, 4, 8)})
	b := p.Bounds()
	if b.Min != geo.Pt(-5, -2) || b.Max != geo.Pt(10, 8) {
		t.Errorf("Bounds = %+v", b)
	}
}

func TestSplitGaps(t *testing.T) {
	p := MustNew([]Sample{
		S(0, 0, 0), S(10, 1, 0), S(20, 2, 0),
		S(500, 3, 0), // 480 s outage
		S(510, 4, 0),
		S(2000, 5, 0), // another outage, isolated fix
	})
	parts := p.SplitGaps(60)
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3", len(parts))
	}
	if parts[0].Len() != 3 || parts[1].Len() != 2 || parts[2].Len() != 1 {
		t.Errorf("part sizes %d/%d/%d, want 3/2/1", parts[0].Len(), parts[1].Len(), parts[2].Len())
	}
	total := 0
	for _, part := range parts {
		if err := part.Validate(); err != nil {
			t.Errorf("part invalid: %v", err)
		}
		total += part.Len()
	}
	if total != p.Len() {
		t.Errorf("parts cover %d samples, want %d", total, p.Len())
	}
	// No gaps: single part.
	if parts := line(10).SplitGaps(60); len(parts) != 1 {
		t.Errorf("gap-free trajectory split into %d parts", len(parts))
	}
	// Empty trajectory.
	if parts := (Trajectory{}).SplitGaps(60); parts != nil {
		t.Errorf("empty trajectory split into %v", parts)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive maxGap accepted")
		}
	}()
	p.SplitGaps(0)
}

// LocAt at a random time always lies within the bounding box and between the
// bracketing samples.
func TestLocAtInterpolationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		b := NewBuilder(0)
		tcur := 0.0
		for i := 0; i < 50; i++ {
			tcur += 0.5 + rng.Float64()*20
			if err := b.AppendPoint(tcur, rng.NormFloat64()*500, rng.NormFloat64()*500); err != nil {
				t.Fatal(err)
			}
		}
		p := b.Trajectory()
		bounds := p.Bounds()
		for i := 0; i < 20; i++ {
			tt := p.StartTime() + rng.Float64()*p.Duration()
			pt, ok := p.LocAt(tt)
			if !ok {
				t.Fatalf("LocAt(%v) failed inside span", tt)
			}
			if !bounds.Contains(pt) {
				t.Fatalf("interpolated point %v outside bounds %+v", pt, bounds)
			}
		}
	}
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
