package cache

import (
	"context"
	"errors"
	"sync"
)

// ForEach runs fn(ctx, i) for every i in [0, n) on at most parallelism
// goroutines, clamped to [1, n], handing out indices in increasing order,
// and returns once every call has returned. It is the module's one
// bounded fan-out: Pipeline.Grid, the experiment harness and boostd's
// grid sweeps all run on it.
//
// The first error cancels the ctx that later calls see, and indices not
// yet started are skipped with the context's error. ForEach returns the
// lowest-indexed error, preferring a real failure over a context error
// (so the error is as deterministic as the tasks are), or nil. If ctx is
// already done, nothing runs and ctx's error is returned.
func ForEach(ctx context.Context, n, parallelism int, fn func(ctx context.Context, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	parallelism = max(1, min(parallelism, n))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err
				} else if err := fn(ctx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !isContextErr(err) {
			return err
		}
		if first == nil {
			first = err
		}
	}
	return first
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
