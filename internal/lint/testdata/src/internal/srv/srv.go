// Package srv is a fixture serving layer with seeded goroutine-lifetime and
// layering violations, next to tracked-goroutine negatives.
package srv

import (
	"sync"

	"fixture/internal/badmath"
)

// Gauge is a locked value.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Set writes the gauge through a pointer receiver.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v = v
}

// Watch launches an untracked goroutine with no cancellation path.
func Watch(g *Gauge) {
	go func() {
		g.Set(badmath.Ratio(1, 3))
	}()
}

// Tracked launches a WaitGroup-tracked goroutine.
func Tracked(g *Gauge, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.Set(1)
	}()
}

// Feed consumes a channel; closing it is the cancellation path.
func Feed(g *Gauge, ch <-chan float64) {
	go func() {
		for v := range ch {
			g.Set(v)
		}
	}()
}
