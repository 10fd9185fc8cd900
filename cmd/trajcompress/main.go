// Command trajcompress compresses trajectory files with any algorithm of
// the library and reports the quality trade-off.
//
// Usage:
//
//	trajcompress -alg tdtr:30 [-in file] [-out file] [flags]
//
//	-alg string     algorithm spec, e.g. tdtr:30 or opwsp:30:5 (required);
//	                trajcompress -h lists every algorithm
//	-in string      input file (default: stdin)
//	-out string     output file (default: stdout)
//	-from string    input format: csv, bin or gpx (default "csv")
//	-to string      output format: csv, bin, geojson or gpx (default: same
//	                as -from)
//	-origin string  "lat,lon" projection origin for gpx/geojson output of
//	                planar input (default "52.22,6.89"); gpx input supplies
//	                its own origin
//	-quiet          suppress the per-trajectory quality report on stderr
//	-parallel int   worker-pool width for batch compression over the file's
//	                trajectories (default 0 = GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	trajcomp "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trajcompress: ")

	var (
		algSpec  = flag.String("alg", "", "algorithm spec (required), e.g. tdtr:30 or opwsp:30:5; one of\n"+trajcomp.AlgorithmHelp())
		in       = flag.String("in", "", "input file (default stdin)")
		out      = flag.String("out", "", "output file (default stdout)")
		from     = flag.String("from", "csv", "input format: csv, bin or gpx")
		to       = flag.String("to", "", "output format: csv, bin, geojson or gpx (default: same as input)")
		origin   = flag.String("origin", "52.22,6.89", "lat,lon projection origin for gpx/geojson output")
		quiet    = flag.Bool("quiet", false, "suppress the quality report")
		parallel = flag.Int("parallel", 0, "worker-pool width for batch compression (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *algSpec == "" {
		flag.Usage()
		os.Exit(2)
	}
	alg, err := trajcomp.ParseAlgorithm(*algSpec)
	if err != nil {
		log.Fatal(err)
	}
	if *to == "" {
		*to = *from
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	var named []trajcomp.Named
	var proj *trajcomp.Projector
	switch *from {
	case "csv":
		named, err = trajcomp.DecodeCSV(r)
	case "bin":
		named, err = trajcomp.DecodeFile(r)
	case "gpx":
		named, proj, err = trajcomp.DecodeGPX(r, nil)
	default:
		log.Fatalf("unknown input format %q", *from)
	}
	if err != nil {
		log.Fatal(err)
	}
	if proj == nil {
		var lat, lon float64
		if _, err := fmt.Sscanf(*origin, "%g,%g", &lat, &lon); err != nil {
			log.Fatalf("bad -origin %q: %v", *origin, err)
		}
		if proj, err = trajcomp.NewProjector(trajcomp.LatLon{Lat: lat, Lon: lon}); err != nil {
			log.Fatal(err)
		}
	}

	// Compress the whole file on a bounded worker pool (one trajectory per
	// worker — the algorithms are embarrassingly parallel across objects),
	// then report per-trajectory quality in input order.
	trajs := make([]trajcomp.Trajectory, len(named))
	for i, n := range named {
		trajs[i] = n.Traj
	}
	results := trajcomp.CompressAll(alg, trajcomp.BatchOptions{Parallelism: *parallel}, trajs)
	compressed := make([]trajcomp.Named, len(named))
	for i, n := range named {
		kept := results[i]
		compressed[i] = trajcomp.Named{ID: n.ID, Traj: kept}
		if !*quiet {
			if rep, err := trajcomp.Evaluate(alg.Name(), n.Traj, kept); err == nil {
				fmt.Fprintf(os.Stderr, "%-12s %s\n", n.ID, rep)
			} else {
				fmt.Fprintf(os.Stderr, "%-12s %d → %d points (no error metric: %v)\n",
					n.ID, n.Traj.Len(), kept.Len(), err)
			}
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	switch *to {
	case "csv":
		err = trajcomp.EncodeCSV(w, compressed)
	case "bin":
		err = trajcomp.EncodeFile(w, compressed)
	case "geojson":
		err = trajcomp.EncodeGeoJSON(w, compressed, proj)
	case "gpx":
		err = trajcomp.EncodeGPX(w, compressed, proj)
	default:
		log.Fatalf("unknown output format %q", *to)
	}
	if err != nil {
		log.Fatal(err)
	}
}
