package cache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// barrier returns a function that blocks until n callers have entered it.
func barrier(n int) func() {
	var wg sync.WaitGroup
	wg.Add(n)
	return func() {
		wg.Done()
		wg.Wait()
	}
}

// TestForEachLowestIndexWins: when several tasks fail, the lowest-indexed
// error is returned, and a real failure wins over a context error at a
// lower index. Every task starts before any fails, so none is skipped.
func TestForEachLowestIndexWins(t *testing.T) {
	boom3, boom7 := errors.New("task 3"), errors.New("task 7")
	knockOn := fmt.Errorf("task 2: %w", context.Canceled)
	for _, tc := range []struct {
		name string
		errs map[int]error
		want error
	}{
		{"lowest index", map[int]error{3: boom3, 7: boom7}, boom3},
		{"real over cancellation", map[int]error{2: knockOn, 7: boom7}, boom7},
		{"only cancellations", map[int]error{2: knockOn}, knockOn},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 10
			wait := barrier(n)
			err := ForEach(context.Background(), n, n, func(ctx context.Context, i int) error {
				wait()
				return tc.errs[i]
			})
			if err != tc.want {
				t.Errorf("ForEach = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestForEachFirstErrorCancelsRest: after a failure, tasks not yet
// started are skipped, and running ones see a cancelled ctx.
func TestForEachFirstErrorCancelsRest(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int64
	err := ForEach(context.Background(), 8, 1, func(ctx context.Context, i int) error {
		calls.Add(1)
		return boom
	})
	if err != boom || calls.Load() != 1 {
		t.Errorf("ForEach = %v after %d calls, want boom after 1", err, calls.Load())
	}

	wait := barrier(2)
	err = ForEach(context.Background(), 2, 2, func(ctx context.Context, i int) error {
		wait()
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if err != boom {
		t.Errorf("ForEach = %v, want boom", err)
	}
}

// TestForEachPreCancelled: a ctx that is already done runs nothing.
func TestForEachPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	err := ForEach(ctx, 5, 2, func(context.Context, int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
		t.Errorf("ForEach = %v after %d calls, want context.Canceled after 0", err, calls.Load())
	}
}

// TestForEachClampsParallelism: parallelism below 1 runs the tasks one
// at a time, and parallelism above n starts only n workers.
func TestForEachClampsParallelism(t *testing.T) {
	for _, p := range []int{-1, 0} {
		var inFlight, most, calls atomic.Int64
		err := ForEach(context.Background(), 5, p, func(context.Context, int) error {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			if n > most.Load() {
				most.Store(n)
			}
			calls.Add(1)
			runtime.Gosched()
			return nil
		})
		if err != nil || calls.Load() != 5 || most.Load() != 1 {
			t.Errorf("parallelism %d: err %v, %d calls, %d at once; want nil, 5, 1", p, err, calls.Load(), most.Load())
		}
	}

	const n = 3
	base := runtime.NumGoroutine()
	var during atomic.Int64
	wait := barrier(n)
	if err := ForEach(context.Background(), n, 64, func(_ context.Context, i int) error {
		wait()
		if i == 0 {
			during.Store(int64(runtime.NumGoroutine()))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// n workers, plus slack for goroutines the runtime starts itself.
	if extra := during.Load() - int64(base); extra > n+4 {
		t.Errorf("parallelism 64 over %d tasks ran %d extra goroutines", n, extra)
	}
}
