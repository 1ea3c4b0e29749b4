// Package par is the deterministic parallel execution layer for the
// routing flow: a bounded worker pool fanning out over index ranges with
// ordered, index-addressed result collection.
//
// The contract every caller relies on (and the qa determinism matrix
// enforces end to end) is that running a loop through this package is
// observationally identical to running it sequentially, at any worker
// count and any GOMAXPROCS:
//
//   - Work is addressed by index. fn(i) writes only state owned by index
//     i (typically results[i]); the pool never reorders, merges or
//     deduplicates — callers consume results in index order exactly as a
//     sequential loop would have produced them.
//   - Error selection is deterministic: when several indices fail, the
//     error of the LOWEST failing index is returned, matching what a
//     sequential loop that stops at the first failure would report.
//     (Later indices may also have run — fn must tolerate that — but the
//     reported error never depends on goroutine scheduling.)
//   - Cancellation passes through: once ctx is done, workers stop picking
//     up new chunks and the context error is returned unless a
//     lower-index fn error takes precedence.
//   - workers <= 1 (after Workers resolution) runs inline on the calling
//     goroutine with no pool at all, so the sequential path stays the
//     plain loop it always was.
//
// Fan-out is chunked: workers claim contiguous index ranges from an
// atomic cursor, so neighbouring indices usually land on one goroutine
// (cache locality for slice-writing loops) and the claim overhead is
// amortized over chunkTarget indices rather than paid per index.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n <= 0 selects
// runtime.GOMAXPROCS(0) (the "use the machine" default, matching
// Options.Workers == 0 throughout the flow), anything else is returned
// as-is. The result is always >= 1.
func Workers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n < 1 {
			n = 1
		}
	}
	return n
}

// chunkTarget is the number of chunks the fan-out aims to carve per
// worker. More chunks than workers keeps the pool load-balanced when
// per-index cost is skewed (one giant net next to many trivial ones)
// while keeping cursor contention negligible.
const chunkTarget = 4

// chunkSize picks the contiguous index-range claim size for n items on
// w workers: ceil(n / (w * chunkTarget)), at least 1.
func chunkSize(n, w int) int {
	c := n / (w * chunkTarget)
	if n%(w*chunkTarget) != 0 {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// and returns the error of the lowest failing index, or the context
// error if ctx was cancelled before the loop completed. workers is
// resolved through Workers, so 0 means GOMAXPROCS. With one worker (or
// n <= 1) the loop runs inline and stops at the first error exactly
// like the hand-written sequential loop it replaces.
//
// fn must confine its writes to state owned by index i. fn may be
// called for indices beyond a failing one (workers drain their claimed
// chunk and in-flight chunks finish), so it must not assume earlier
// indices succeeded.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	chunk := chunkSize(n, workers)
	var (
		cursor atomic.Int64 // next unclaimed index
		failed atomic.Int64 // lowest failing index + 1 hint, 0 = none
		mu     sync.Mutex
		errAt  = -1 // lowest failing index under mu
		errVal error
	)
	record := func(i int, err error) {
		mu.Lock()
		if errAt < 0 || i < errAt {
			errAt, errVal = i, err
		}
		mu.Unlock()
		failed.Store(1)
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() != 0 || ctx.Err() != nil {
					return
				}
				lo := int(cursor.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					if err := fn(i); err != nil {
						record(i, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if errAt >= 0 {
		return errVal
	}
	return ctx.Err()
}

// Map is ForEach collecting fn's results into an index-addressed slice:
// out[i] holds fn(i)'s value. On error the slice built so far is
// returned alongside the lowest-index error; entries whose fn did not
// run (or ran after a failure) hold their computed value or the zero
// value — callers that care must check the error first.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
