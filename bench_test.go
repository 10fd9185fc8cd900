package trajcomp

// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus micro-benchmarks and the ablations called out in DESIGN.md §5.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkTable*/BenchmarkFigure* benchmark prints the reproduced
// artifact once (on the first iteration) and then measures the cost of
// regenerating it.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/experiments"
)

var printOnce sync.Once

// benchArtifact measures fn and prints its rendered artifact once per
// process so `go test -bench .` doubles as the reproduction run.
func benchArtifact(b *testing.B, render func(w io.Writer)) {
	b.Helper()
	printOnce.Do(func() {
		fmt.Fprintln(os.Stderr)
		fmt.Fprintln(os.Stderr, "=== paper reproduction artifacts (printed once; see cmd/experiments for the full run) ===")
	})
	var buf bytes.Buffer
	render(&buf)
	b.Logf("\n%s", buf.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render(io.Discard)
	}
}

// BenchmarkTable2Stats regenerates Table 2: statistics of the ten
// evaluation trajectories.
func BenchmarkTable2Stats(b *testing.B) {
	benchArtifact(b, func(w io.Writer) {
		if err := experiments.RenderTable2(w, experiments.Table2()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFigure7 regenerates Fig. 7: NDP vs TD-TR.
func BenchmarkFigure7(b *testing.B) {
	benchArtifact(b, func(w io.Writer) {
		if err := experiments.RenderFigure(w, experiments.Figure7()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFigure8 regenerates Fig. 8: BOPW vs NOPW.
func BenchmarkFigure8(b *testing.B) {
	benchArtifact(b, func(w io.Writer) {
		if err := experiments.RenderFigure(w, experiments.Figure8()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFigure9 regenerates Fig. 9: NOPW vs OPW-TR.
func BenchmarkFigure9(b *testing.B) {
	benchArtifact(b, func(w io.Writer) {
		if err := experiments.RenderFigure(w, experiments.Figure9()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFigure10 regenerates Fig. 10: OPW-TR vs TD-SP vs OPW-SP.
func BenchmarkFigure10(b *testing.B) {
	benchArtifact(b, func(w io.Writer) {
		if err := experiments.RenderFigure(w, experiments.Figure10()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkFigure11 regenerates Fig. 11: the error/compression frontier.
func BenchmarkFigure11(b *testing.B) {
	benchArtifact(b, func(w io.Writer) {
		if err := experiments.RenderFrontier(w, experiments.Figure11()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkAlgorithms measures each compression algorithm on one ~200-point
// trajectory of the evaluation dataset.
func BenchmarkAlgorithms(b *testing.B) {
	p := PaperDataset()[0]
	for _, spec := range []string{
		"uniform:3", "radial:50", "dr:50", "ndp:50", "nopw:50", "bopw:50",
		"tdtr:50", "opwtr:50", "opwsp:50:5", "tdsp:50:5", "bu:50", "butr:50",
		"sw:50:20", "swtr:50:20",
	} {
		alg := mustParse(b, spec)
		b.Run(alg.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				alg.Compress(p)
			}
		})
	}
}

// BenchmarkBreakStrategyAblation compares the opening-window break-point
// strategies (DESIGN.md §5) under the synchronized distance.
func BenchmarkBreakStrategyAblation(b *testing.B) {
	p := PaperDataset()[0]
	b.Run("at-violation", func(b *testing.B) {
		alg := mustParse(b, "opwtr:50")
		for i := 0; i < b.N; i++ {
			alg.Compress(p)
		}
	})
	b.Run("before", func(b *testing.B) {
		alg := mustParse(b, "bopw:50")
		for i := 0; i < b.N; i++ {
			alg.Compress(p)
		}
	})
}

// BenchmarkAvgError measures the closed-form synchronized error metric.
func BenchmarkAvgError(b *testing.B) {
	p := PaperDataset()[0]
	a := mustParse(b, "tdtr:50").Compress(p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AvgError(p, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlinePush measures the per-sample cost of online OPW-TR.
func BenchmarkOnlinePush(b *testing.B) {
	p := PaperDataset()[0]
	c := mustOnline(b, "opwtr:50")()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := p[i%p.Len()]
		if i > 0 && i%p.Len() == 0 {
			c.Flush()
		}
		if _, err := c.Push(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodec measures binary encode/decode of the full dataset.
func BenchmarkCodec(b *testing.B) {
	named := make([]Named, 0, 10)
	for i, p := range PaperDataset() {
		named = append(named, Named{ID: fmt.Sprintf("car-%d", i), Traj: p})
	}
	var buf bytes.Buffer
	if err := EncodeFile(&buf, named); err != nil {
		b.Fatal(err)
	}
	encoded := buf.Bytes()

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := EncodeFile(io.Discard, named); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeFile(bytes.NewReader(encoded)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreIndex compares the grid and R-tree indexes on ingest and
// range queries over a populated fleet store (DESIGN.md §5).
func BenchmarkStoreIndex(b *testing.B) {
	fleet := make([]Trajectory, 20)
	for i := range fleet {
		fleet[i] = GenerateTrip(int64(300+i), Mixed, 1800).
			Shift(0, float64(i%5)*5000, float64(i/5)*5000)
	}
	for _, kind := range []struct {
		name string
		k    IndexKind
	}{{"grid", IndexGrid}, {"rtree", IndexRTree}} {
		b.Run("ingest/"+kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := NewStore(StoreOptions{Index: kind.k})
				for v, p := range fleet {
					id := fmt.Sprintf("v%d", v)
					for _, s := range p {
						if err := st.Append(id, s); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
		st := NewStore(StoreOptions{Index: kind.k})
		for v, p := range fleet {
			id := fmt.Sprintf("v%d", v)
			for _, s := range p {
				if err := st.Append(id, s); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run("query/"+kind.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cx := float64(i%5) * 5000
				cy := float64(i%4) * 5000
				rect := Rect{
					Min: Point{X: cx - 1000, Y: cy - 1000},
					Max: Point{X: cx + 1000, Y: cy + 1000},
				}
				st.Query(rect, 0, 1800)
			}
		})
	}
}

// BenchmarkStoreIngest measures moving-object store ingestion with
// compression off and with on-ingest OPW-TR / OPW-SP (DESIGN.md §5).
func BenchmarkStoreIngest(b *testing.B) {
	p := PaperDataset()[0]
	cases := []struct {
		name string
		opts StoreOptions
	}{
		{"raw", StoreOptions{}},
		{"opwtr", StoreOptions{NewCompressor: mustOnline(b, "opwtr:50")}},
		{"opwsp", StoreOptions{NewCompressor: mustOnline(b, "opwsp:50:5")}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st := NewStore(tc.opts)
				for _, s := range p {
					if err := st.Append("car", s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
