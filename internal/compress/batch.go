package compress

import (
	"runtime"
	"sync"

	"repro/internal/trajectory"
)

// BatchOptions configures the batch compression worker pool.
type BatchOptions struct {
	// Parallelism bounds the number of concurrent workers; values ≤ 0
	// select GOMAXPROCS. The pool never spawns more workers than there are
	// trajectories.
	Parallelism int
}

// CompressAll compresses every trajectory with alg on a bounded worker
// pool, preserving input order — the batch path for archival jobs over
// large fleets. The paper's algorithms are embarrassingly parallel across
// objects: one trajectory per worker. Algorithms are pure and value-typed,
// so one instance is shared safely across workers. The result has exactly
// one output per input, identical to the serial loop's.
func CompressAll(alg Algorithm, opts BatchOptions, ps []trajectory.Trajectory) []trajectory.Trajectory {
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]trajectory.Trajectory, len(ps))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(ps)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = alg.Compress(ps[i])
			}
		}()
	}
	for i := range ps {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
