package stream

import (
	"testing"

	"repro/internal/trajectory"
)

func TestParseFactoryValid(t *testing.T) {
	cases := onlineSpecs(t)
	p := trajectory.Trajectory{
		trajectory.S(0, 0, 0), trajectory.S(10, 100, 0), trajectory.S(20, 150, 80),
	}
	for _, spec := range cases {
		f, err := ParseFactory(spec)
		if err != nil {
			t.Errorf("ParseFactory(%q): %v", spec, err)
			continue
		}
		if f == nil {
			t.Errorf("ParseFactory(%q) returned nil factory", spec)
			continue
		}
		out, err := Collect(f(), p)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
		}
		if err := out.Validate(); err != nil {
			t.Errorf("%q output invalid: %v", spec, err)
		}
	}
}

func TestParseFactoryNone(t *testing.T) {
	f, err := ParseFactory("none")
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Error("none returned a non-nil factory")
	}
}

func TestParseFactoryInvalid(t *testing.T) {
	cases := []string{
		"", "what:5",
		"nopw",        // missing threshold
		"nopw:x",      // non-numeric
		"nopw:-1",     // negative
		"opwtr:30:64", // no window argument: the cap is a constant
		"opwsp:30",    // missing speed
		"opwsp:30:0",  // zero speed
		"dr:30:5",     // too many args
		"none:1",      // none takes no args
		"tdtr:30",     // valid spec, but batch-only
		"operb:30:5", "cisedw:x",
	}
	for _, spec := range cases {
		if _, err := ParseFactory(spec); err == nil {
			t.Errorf("ParseFactory(%q) accepted", spec)
		}
	}
}

func TestParseFactoryFreshInstances(t *testing.T) {
	f, err := ParseFactory("opwtr:30")
	if err != nil {
		t.Fatal(err)
	}
	a, b := f(), f()
	if a == b {
		t.Error("factory returned the same compressor twice")
	}
	// Feeding a must not affect b.
	if _, err := a.Push(trajectory.S(100, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Push(trajectory.S(0, 0, 0)); err != nil {
		t.Errorf("independent compressor rejected earlier timestamp: %v", err)
	}
}
