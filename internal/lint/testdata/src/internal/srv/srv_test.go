// Fixture for test files: goroleak runs over _test.go files, while the
// style/layering analyzers stay scoped to production code (the
// floating-point comparison below must NOT be flagged here).
package srv

import "testing"

// TestSpin launches an untracked goroutine: a goroleak positive in a test
// file.
func TestSpin(t *testing.T) {
	g := &Gauge{}
	go func() {
		g.Set(1)
	}()
	if g.Value() == 1.0 {
		t.Log("raced")
	}
}
