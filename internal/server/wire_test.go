package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/store"
	"repro/internal/trajectory"
)

// recorder is a Backend that logs every call with the bits of its float
// arguments and answers from those arguments, so two servers' replies and
// logs agree exactly when their parsers produced the same values.
type recorder struct{ calls []string }

var errStubNotFinite = errors.New("stub: not finite")

func (r *recorder) logf(format string, args ...any) {
	r.calls = append(r.calls, fmt.Sprintf(format, args...))
}

// bits renders float64s by their IEEE bits: -0 differs from 0, and every NaN
// payload from every other.
func bits(vs ...float64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, " %016x", math.Float64bits(v))
	}
	return b.String()
}

func (r *recorder) Append(id string, s trajectory.Sample) error {
	r.logf("append %q%s", id, bits(s.T, s.X, s.Y))
	if !s.IsFinite() {
		return errStubNotFinite
	}
	return nil
}

func (r *recorder) AppendBatch(id string, ss []trajectory.Sample) (int, error) {
	r.logf("mappend %q %d", id, len(ss))
	for k, s := range ss {
		r.logf("  sample%s", bits(s.T, s.X, s.Y))
		if !s.IsFinite() {
			return k, errStubNotFinite
		}
	}
	return len(ss), nil
}

func (r *recorder) Snapshot(id string) (trajectory.Trajectory, bool) {
	r.logf("snapshot %q", id)
	if id == "none" {
		return nil, false
	}
	return trajectory.Trajectory{trajectory.S(1.5, math.Copysign(0, -1), 1e21), trajectory.S(2, 5e-324, 1e6)}, true
}

func (r *recorder) PositionAt(id string, t float64) (geo.Point, bool) {
	r.logf("position %q%s", id, bits(t))
	return geo.Pt(t, -t/3), !math.IsNaN(t)
}

func (r *recorder) Query(rect geo.Rect, t0, t1 float64) []string {
	r.logf("query%s", bits(rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y, t0, t1))
	return []string{"a", "b"}
}

func (r *recorder) QueryWithTolerance(rect geo.Rect, t0, t1, eps float64) []string {
	r.logf("querytol%s", bits(rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y, t0, t1, eps))
	return []string{"c"}
}

func (r *recorder) RangePoints(rect geo.Rect, t0, t1 float64) []store.RangePoint {
	r.logf("range%s", bits(rect.Min.X, rect.Min.Y, rect.Max.X, rect.Max.Y, t0, t1))
	return []store.RangePoint{{ID: "r", S: trajectory.S(t0, rect.Min.X/7, rect.Max.Y)}}
}

func (r *recorder) Nearest(q geo.Point, t float64, k int) []store.Neighbor {
	r.logf("nearest%s %d", bits(q.X, q.Y, t), k)
	return []store.Neighbor{{ID: "n", Pos: q, Dist: t / 3}}
}

func (r *recorder) SealBefore(t float64) (int, error) {
	r.logf("seal%s", bits(t))
	return 0, nil
}

func (r *recorder) EvictBefore(t float64) int {
	r.logf("evict%s", bits(t))
	return 0
}

func (r *recorder) IDs() []string {
	r.logf("ids")
	return []string{"a"}
}

func (r *recorder) Stats() store.Stats {
	r.logf("stats")
	return store.Stats{Objects: 1, RawPoints: 3, RetainedPoints: 2, CompressionPct: 100.0 / 3}
}

// serveInput runs srv's command loop over the bytes of one connection, the
// way handle does, and returns each command's reply. The loop ends where
// handle's would: at the end of input, a QUIT, or a switch to a feed or a
// replication stream.
func serveInput(srv *Server, in []byte) []string {
	var out bytes.Buffer
	c := &session{br: bufio.NewReaderSize(bytes.NewReader(in), 4096), w: bufio.NewWriter(&out)}
	var replies []string
	for c.next() == nil {
		if len(c.fields) == 0 {
			continue
		}
		quit, sub, rr := srv.dispatch(c)
		_ = c.w.Flush() // a bytes.Buffer does not fail
		replies = append(replies, out.String())
		out.Reset()
		if sub != nil {
			srv.bus.Unsubscribe(sub)
		}
		if quit || sub != nil || rr != nil {
			break
		}
	}
	return replies
}

// TestParseFloatMatchesStrconv pins the decimal fast path to
// strconv.ParseFloat, bit for bit, on a million seeded values as 'f' and 'g'
// render them and on the edges of the fast path: 15 against 16 significant
// digits, 22 against 23 fraction digits.
func TestParseFloatMatchesStrconv(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, werr := strconv.ParseFloat(s, 64)
		got, gerr := parseFloat([]byte(s))
		if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("parseFloat(%q) = %v (%016x), %v; strconv: %v (%016x), %v",
				s, got, math.Float64bits(got), gerr, want, math.Float64bits(want), werr)
		}
	}
	for _, s := range []string{
		"0", "-0", "+0", "-0.000", "1.", ".5", "-.5", "+.5", ".", "-", "+", "1..2", "1e5", "1E-5",
		"0x1p-2", "1_0", "Inf", "-inf", "NaN", "00000000000000000000000000001.5",
		"123456789012345", "1234567890123456", "-999999999999999", "9999999999999999",
		"12345678901234.5", "1234567890123.45678", "0.000000000000000000001", "0.1234567890123456789012",
		"0.12345678901234567890123", "1.0000000000000000000000", "1.00000000000000000000000",
		"4.35", "0.1", "0.3", "2.675", "1e23", "179769313486231570000000000000000",
	} {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < 1_000_000; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(16)-4))
		switch i % 4 {
		case 0:
			buf = strconv.AppendFloat(buf[:0], v, 'g', -1, 64)
		case 1:
			buf = strconv.AppendFloat(buf[:0], v, 'f', rng.Intn(24), 64)
		case 2:
			buf = strconv.AppendFloat(buf[:0], math.Round(v*100)/100, 'g', -1, 64) // a centimetre grid, as GPS gateways send
		default:
			buf = strconv.AppendFloat(buf[:0], v, 'g', 1+rng.Intn(17), 64)
		}
		check(string(buf))
	}
}

// formatValues are the seeded floats and boundary values the %g golden
// tests run over.
func formatValues() []float64 {
	vs := []float64{0, math.Copysign(0, -1), 1e21, -1e21, 1e20, 1e-5, 1e-4, 9.9999e-5, 5e-324, -5e-324,
		1e6, 999999, 1e6 - 0.5, 1e6 + 0.5, 123456.7, 1234567.8, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	rng := rand.New(rand.NewSource(2))
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
	return vs
}

// TestReplyRowsMatchSprintf is the golden test of the reply formatting: every
// data row is byte-identical to what fmt's %g printed before.
func TestReplyRowsMatchSprintf(t *testing.T) {
	var out bytes.Buffer
	c := &session{w: bufio.NewWriter(&out)}
	vs := formatValues()
	for i := 0; i+2 < len(vs); i++ {
		a, b, d := vs[i], vs[i+1], vs[i+2]
		c.writeRow(append(c.out[:0], "veh "...), a, b, d)
		c.writeRow(c.out[:0], a, b)
		_ = c.w.Flush()
		if want := fmt.Sprintf("%s %g %g %g\n%g %g\n", "veh", a, b, d, a, b); out.String() != want {
			t.Fatalf("rows %q, fmt printed %q", out.String(), want)
		}
		out.Reset()
	}
}

func TestSplitFieldsMatchesStringsFields(t *testing.T) {
	for _, line := range []string{
		"", " ", "\r\n", "APPEND a 1 2 3\r\n", "  lead  and\ttrail \v\f", "a\u00a0b\u0085c d\u3000e",
		"\xff\xfe x\xc2", "\xc2\xa0only\xc2\xa0", "\u00e9 \u00fc", "a\u200bb", "1 2 3 4 5 6 7 8",
	} {
		var buf [maxFields][]byte
		var got []string
		for _, f := range splitFields(buf[:0], []byte(line)) {
			got = append(got, string(f))
		}
		if want := strings.Fields(line); strings.Join(got, "|") != strings.Join(want, "|") || len(got) != len(want) {
			t.Errorf("splitFields(%q) = %q, strings.Fields = %q", line, got, want)
		}
	}
	// A line with more fields than any verb takes is cut at maxFields.
	var buf [maxFields][]byte
	if n := len(splitFields(buf[:0], []byte(strings.Repeat("x ", 50)))); n != maxFields {
		t.Errorf("50 fields split into %d, want the first %d", n, maxFields)
	}
}

// nopBackend accepts every append and answers every query with nothing.
type nopBackend struct{}

func (nopBackend) Append(string, trajectory.Sample) error                          { return nil }
func (nopBackend) AppendBatch(_ string, ss []trajectory.Sample) (int, error)       { return len(ss), nil }
func (nopBackend) Snapshot(string) (trajectory.Trajectory, bool)                   { return nil, false }
func (nopBackend) PositionAt(string, float64) (geo.Point, bool)                    { return geo.Point{}, false }
func (nopBackend) Query(geo.Rect, float64, float64) []string                       { return nil }
func (nopBackend) QueryWithTolerance(geo.Rect, float64, float64, float64) []string { return nil }
func (nopBackend) RangePoints(geo.Rect, float64, float64) []store.RangePoint       { return nil }
func (nopBackend) Nearest(geo.Point, float64, int) []store.Neighbor                { return nil }
func (nopBackend) SealBefore(float64) (int, error)                                 { return 0, nil }
func (nopBackend) EvictBefore(float64) int                                         { return 0 }
func (nopBackend) IDs() []string                                                   { return nil }
func (nopBackend) Stats() store.Stats                                              { return store.Stats{} }

// raceEnabled reports a -race build (race_test.go), whose instrumentation
// allocates.
var raceEnabled bool

// TestIngestPathAllocations pins the allocation budget of the two ingest
// verbs through the real command loop: a MAPPEND of 64 samples allocates its
// object ID and nothing per point, an APPEND its object ID.
func TestIngestPathAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var batch bytes.Buffer
	batch.WriteString("MAPPEND veh-00042 64\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&batch, "%g %g %g\n", 1000.25+float64(i), 12345.67-float64(i)/100, -987.6)
	}
	for _, tc := range []struct {
		name   string
		input  []byte
		budget float64
	}{
		{"MAPPEND x64", batch.Bytes(), 1},
		{"APPEND", []byte("APPEND veh-00042 1000.25 12345.67 -987.6\n"), 1},
	} {
		srv := New(nopBackend{})
		r := bytes.NewReader(tc.input)
		c := &session{br: bufio.NewReaderSize(r, 4096), w: bufio.NewWriter(io.Discard)}
		allocs := testing.AllocsPerRun(200, func() {
			r.Reset(tc.input)
			c.br.Reset(r)
			for c.next() == nil {
				if len(c.fields) > 0 {
					srv.dispatch(c)
				}
			}
		})
		t.Logf("%s: %v allocations per command", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: %v allocations per command, budget %v", tc.name, allocs, tc.budget)
		}
	}
}

// BenchmarkParseDataLine measures the text cost per point that a binary
// frame could save at most: split one MAPPEND data line and parse its three
// numbers.
func BenchmarkParseDataLine(b *testing.B) {
	line := []byte("81234.567 -8901.23 45678.9\n")
	var buf [maxFields][]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parseSample(splitFields(buf[:0], line)); err != nil {
			b.Fatal(err)
		}
	}
}
