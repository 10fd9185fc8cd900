package compress

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseValidSpecs(t *testing.T) {
	tests := []struct {
		spec     string
		wantName string
	}{
		{"uniform:3", "Uniform(3)"},
		{"radial:25", "Radial(25)"},
		{"angular:0.3", "Angular(0.3)"},
		{"dr:40", "DeadReckoning(40)"},
		{"ndp:30", "NDP"},
		{"nopw:30", "NOPW"},
		{"bopw:30", "BOPW"},
		{"tdtr:30", "TD-TR"},
		{"opwtr:30", "OPW-TR"},
		{"opwsp:30:5", "OPW-SP(5m/s)"},
		{"tdsp:30:5", "TD-SP(5m/s)"},
		{"bu:30", "BU"},
		{"butr:30", "BU-TR"},
		{"sw:30:20", "SW(20)"},
		{"swtr:30:20", "SW-TR(20)"},
		{"ndpn:40", "NDP-N(40)"},
		{"tdtrn:40", "TD-TR-N(40)"},
		{"squish:40", "SQUISH(40)"},
		{"operb:30", "OPERB"},
		{"ciseds:30", "CISED-S"},
		{"cisedw:30", "CISED-W"},
		{"TDTR:30", "TD-TR"},       // case-insensitive
		{" opwtr : 30 ", "OPW-TR"}, // whitespace-tolerant
	}
	for _, tc := range tests {
		alg, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if alg.Name() != tc.wantName {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.spec, alg.Name(), tc.wantName)
		}
	}
}

func TestParseInvalidSpecs(t *testing.T) {
	bad := []string{
		"",
		"unknown:5",
		"tdtr",        // missing threshold
		"tdtr:abc",    // non-numeric
		"tdtr:-5",     // negative
		"tdtr:30:5",   // too many args
		"opwsp:30",    // missing speed
		"opwsp:30:0",  // zero speed
		"opwsp:30:-1", // negative speed
		"uniform:0",   // stride < 1
		"uniform:2.5", // non-integer stride
		"sw:30",       // missing window
		"sw:30:2",     // window < 3
		"sw:30:0",     // window < 3
		"opwtr:30:64", // the opening-window cap is a constant, not an argument
		"nopw:30:0",
		"opwsp:30:5:64",
		"dr:30:5",     // too many args
		"none",        // "none" is the server's word, not an algorithm
		"swtr:30:2.5", // non-integer window
		"butr:-1",     // negative threshold
		"squish:1",    // budget < 2
		"tdtrn:10.5",  // non-integer budget
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		} else if !strings.Contains(err.Error(), "compress:") {
			t.Errorf("Parse(%q) error %q lacks package prefix", spec, err)
		}
	}
}

// Every spec produced by Parse must run end to end.
func TestParsedAlgorithmsRun(t *testing.T) {
	p := evenLine(30)
	for _, spec := range []string{
		"uniform:2", "radial:15", "angular:0.2", "dr:10",
		"ndp:10", "nopw:10", "bopw:10",
		"tdtr:10", "opwtr:10", "opwsp:10:5", "tdsp:10:5",
		"bu:10", "butr:10", "sw:10:8", "swtr:10:8",
	} {
		alg, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		a := alg.Compress(p)
		if err := a.Validate(); err != nil {
			t.Errorf("%s output invalid: %v", alg.Name(), err)
		}
	}
}

// Every help line, with its argument letters replaced by sample values,
// parses to the algorithm its row builds — so the grammar shown to users is
// the grammar Parse accepts.
func TestHelpRoundTripsThroughParse(t *testing.T) {
	values := map[string]float64{"D": 30, "A": 0.3, "V": 5, "K": 3, "N": 40, "W": 8}
	lines := strings.Split(Help(false), "\n")
	if len(lines) != len(table) {
		t.Fatalf("Help has %d lines for %d table rows", len(lines), len(table))
	}
	for i, r := range table {
		parts := strings.Split(strings.Fields(lines[i])[0], ":")
		if parts[0] != r.name || !strings.HasSuffix(lines[i], r.doc) {
			t.Errorf("help line %d = %q, want row %s", i, lines[i], r.name)
		}
		var vals []float64
		for j, letter := range parts[1:] {
			v, ok := values[letter]
			if !ok {
				t.Fatalf("row %s: unknown argument letter %q", r.name, letter)
			}
			vals = append(vals, v)
			parts[j+1] = fmt.Sprint(v)
		}
		spec := strings.Join(parts, ":")
		got, err := Parse(spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		} else if want := r.build(vals); got != want {
			t.Errorf("Parse(%q) = %#v, want %#v", spec, got, want)
		}
	}
}

// Online capability is read off the algorithm values, not listed by hand;
// this pins the set the server accepts.
func TestOnlineNames(t *testing.T) {
	want := "dr nopw bopw opwtr opwsp operb ciseds cisedw"
	if got := strings.Join(Names(true), " "); got != want {
		t.Errorf("Names(true) = %q, want %q", got, want)
	}
	if got := len(Names(false)); got != len(table) {
		t.Errorf("Names(false) has %d names for %d rows", got, len(table))
	}
}
