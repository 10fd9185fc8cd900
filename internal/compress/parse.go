package compress

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// row is one entry of the algorithm table, the only place in the module
// that maps a spec name to an algorithm.
type row struct {
	name string
	// args is the argument grammar as it appears in help texts: one letter
	// per colon-separated argument (see checkArg).
	args string
	doc  string
	// build receives one value per letter of args.
	build func(a []float64) Algorithm
}

var table = []row{
	{"uniform", "K", "keep every K-th point",
		func(a []float64) Algorithm { return Uniform{K: int(a[0])} }},
	{"radial", "D", "neighbour elimination, min spacing D metres",
		func(a []float64) Algorithm { return Radial{Threshold: a[0]} }},
	{"angular", "A", "Jenks criterion, min turn angle A radians",
		func(a []float64) Algorithm { return Angular{AngleThreshold: a[0]} }},
	{"dr", "D", "dead reckoning, deviation D metres",
		func(a []float64) Algorithm { return DeadReckoning{Threshold: a[0]} }},
	{"ndp", "D", "Douglas-Peucker, perpendicular tolerance D metres",
		func(a []float64) Algorithm { return DouglasPeucker{Threshold: a[0]} }},
	{"nopw", "D", "normal opening window",
		func(a []float64) Algorithm { return NOPW{Threshold: a[0]} }},
	{"bopw", "D", "before opening window",
		func(a []float64) Algorithm { return BOPW{Threshold: a[0]} }},
	{"tdtr", "D", "top-down time ratio",
		func(a []float64) Algorithm { return TDTR{Threshold: a[0]} }},
	{"opwtr", "D", "opening-window time ratio",
		func(a []float64) Algorithm { return OPWTR{Threshold: a[0]} }},
	{"opwsp", "D:V", "opening-window spatiotemporal, speed tolerance V m/s",
		func(a []float64) Algorithm { return OPWSP{DistThreshold: a[0], SpeedThreshold: a[1]} }},
	{"tdsp", "D:V", "top-down spatiotemporal",
		func(a []float64) Algorithm { return TDSP{DistThreshold: a[0], SpeedThreshold: a[1]} }},
	{"bu", "D", "bottom-up, perpendicular tolerance D metres",
		func(a []float64) Algorithm { return BottomUp{Threshold: a[0]} }},
	{"butr", "D", "bottom-up time ratio",
		func(a []float64) Algorithm { return BottomUpTR{Threshold: a[0]} }},
	{"sw", "D:W", "sliding window: Douglas-Peucker in windows of W points",
		func(a []float64) Algorithm { return SlidingWindow{Threshold: a[0], Window: int(a[1])} }},
	{"swtr", "D:W", "sliding window time ratio",
		func(a []float64) Algorithm { return SlidingWindowTR{Threshold: a[0], Window: int(a[1])} }},
	{"ndpn", "N", "Douglas-Peucker to a budget of N points",
		func(a []float64) Algorithm { return DouglasPeuckerN{N: int(a[0])} }},
	{"tdtrn", "N", "top-down time ratio to a budget of N points",
		func(a []float64) Algorithm { return TDTRN{N: int(a[0])} }},
	{"squish", "N", "SQUISH online sketch of N points",
		func(a []float64) Algorithm { return SQUISH{Capacity: int(a[0])} }},
	{"operb", "D", "one-pass error bounded, perpendicular tolerance D",
		func(a []float64) Algorithm { return OPERB{Threshold: a[0]} }},
	{"ciseds", "D", "one-pass strong SED simplification, tolerance D",
		func(a []float64) Algorithm { return CISEDS{Threshold: a[0]} }},
	{"cisedw", "D", "one-pass weak SED simplification (synthesizes joint points), tolerance D",
		func(a []float64) Algorithm { return CISEDW{Threshold: a[0]} }},
}

// letters returns one letter per argument of r.
func (r row) letters() string { return strings.ReplaceAll(r.args, ":", "") }

// online reports whether r's algorithm can run incrementally.
func (r row) online() bool {
	_, ok := r.build(make([]float64, len(r.letters()))).(Online)
	return ok
}

// checkArg validates v against its argument letter: D, A (distance, angle
// or area tolerance) ≥ 0; V (speed tolerance) > 0; K (stride) an integer
// ≥ 1; N (point budget) an integer ≥ 2; W (window) an integer ≥ 3.
func checkArg(letter byte, v float64) error {
	//lint:allow floatcmp integrality check on a parsed numeric flag
	integer := v == float64(int(v))
	switch letter {
	case 'V':
		if v <= 0 {
			return errors.New("speed tolerance must be positive")
		}
	case 'K':
		if !integer || v < 1 {
			return errors.New("stride must be a positive integer")
		}
	case 'N':
		if !integer || v < 2 {
			return errors.New("point budget must be an integer ≥ 2")
		}
	case 'W':
		if !integer || v < 3 {
			return errors.New("window must be an integer ≥ 3")
		}
	default:
		if v < 0 {
			return errors.New("negative threshold")
		}
	}
	return nil
}

// Names lists the algorithm names Parse accepts, in table order; with
// online set, only those that can run incrementally (see Online).
func Names(online bool) []string {
	var names []string
	for _, r := range table {
		if !online || r.online() {
			names = append(names, r.name)
		}
	}
	return names
}

// Help renders the spec grammar, one "name:ARGS  description" line per
// algorithm; with online set, only those that can run incrementally. Every
// help text of the command-line tools is this string.
func Help(online bool) string {
	var lines []string
	for _, r := range table {
		if !online || r.online() {
			lines = append(lines, fmt.Sprintf("%-20s %s", r.name+":"+r.args, r.doc))
		}
	}
	return strings.Join(lines, "\n")
}

// Parse builds an Algorithm from a compact textual spec "name:arg:…", as
// used by the command-line tools and the server; Help prints the grammar.
// Names are case-insensitive and whitespace around fields is ignored.
func Parse(spec string) (Algorithm, error) {
	parts := strings.Split(spec, ":")
	name := strings.ToLower(strings.TrimSpace(parts[0]))
	args := parts[1:]
	for _, r := range table {
		if r.name != name {
			continue
		}
		letters := r.letters()
		if len(args) != len(letters) {
			return nil, fmt.Errorf("compress: spec %q: want %s:%s, got %d argument(s)", spec, name, r.args, len(args))
		}
		vals := make([]float64, len(letters))
		for i, arg := range args {
			v, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err == nil {
				err = checkArg(letters[i], v)
			}
			if err != nil {
				return nil, fmt.Errorf("compress: spec %q: argument %d: %w", spec, i+1, err)
			}
			vals[i] = v
		}
		return r.build(vals), nil
	}
	return nil, fmt.Errorf("compress: unknown algorithm %q (want %s)", name, strings.Join(Names(false), ", "))
}
