package experiment

import (
	"fmt"
	"runtime"
	"sync"
)

// runGrid executes do(point, run) for every pair on up to parallel worker
// goroutines and returns the results indexed as [point][run]. It is the
// only cases×seeds driver in the package: sweeps and studies alike hand it
// one independent, individually seeded simulation per cell and fold the
// returned grid in index order, so parallel execution prints exactly the
// digits sequential execution does. The first error aborts scheduling of
// remaining work.
func runGrid[T any](points, runs, parallel int, do func(point, run int) (T, error)) ([][]T, error) {
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	if parallel > points*runs {
		parallel = points * runs
	}
	if parallel < 1 {
		parallel = 1
	}

	out := make([][]T, points)
	for i := range out {
		out[i] = make([]T, runs)
	}

	type job struct{ point, run int }
	jobs := make(chan job)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rs, err := do(j.point, j.run)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("point %d run %d: %w", j.point, j.run, err)
				}
				out[j.point][j.run] = rs
				mu.Unlock()
			}
		}()
	}
	for p := 0; p < points; p++ {
		for r := 0; r < runs; r++ {
			mu.Lock()
			abort := firstErr != nil
			mu.Unlock()
			if abort {
				break
			}
			jobs <- job{point: p, run: r}
		}
	}
	close(jobs)
	wg.Wait()
	return out, firstErr
}

// meanOver averages f over one grid row, summing in run order and dividing
// once: the same floating-point operations, in the same order, as a serial
// accumulate-then-divide loop.
func meanOver[T any](runs []T, f func(T) float64) float64 {
	var sum float64
	for _, r := range runs {
		sum += f(r)
	}
	return sum / float64(len(runs))
}
