package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemoSingleflight(t *testing.T) {
	m := NewMemo[int]()
	var calls atomic.Int64
	var wg sync.WaitGroup
	const goroutines = 32
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Errorf("compute ran %d times, want 1", c)
	}
	hits, misses := m.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Errorf("stats hits=%d misses=%d, want %d/1", hits, misses, goroutines-1)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	m := NewMemo[string]()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		v, err := m.Do(context.Background(), key, func() (string, error) { return key + "!", nil })
		if err != nil || v != key+"!" {
			t.Fatalf("Do(%s) = %q, %v", key, v, err)
		}
	}
	if m.Len() != 10 {
		t.Errorf("Len = %d, want 10", m.Len())
	}
}

func TestMemoErrorsAreMemoized(t *testing.T) {
	m := NewMemo[int]()
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 3; i++ {
		_, err := m.Do(context.Background(), "k", func() (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Errorf("failing compute ran %d times, want 1", calls)
	}
}

func TestMemoCancellationNotMemoized(t *testing.T) {
	m := NewMemo[int]()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Do(ctx, "k", func() (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
	// A flight that itself fails with Canceled must not poison the key.
	if _, err := m.Do(context.Background(), "k", func() (int, error) {
		return 0, fmt.Errorf("wrapped: %w", context.Canceled)
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	v, err := m.Do(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after cancellation: %d, %v", v, err)
	}
}

func TestMemoWaiterCancellation(t *testing.T) {
	m := NewMemo[int]()
	release := make(chan struct{})
	go m.Do(context.Background(), "slow", func() (int, error) {
		<-release
		return 1, nil
	})
	// Give the flight time to take ownership of the key.
	for i := 0; ; i++ {
		if _, misses := m.Stats(); misses == 1 {
			break
		}
		if i > 1000 {
			t.Fatal("flight never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Do(ctx, "slow", func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter should observe its own cancellation, got %v", err)
	}
	close(release)
	v, err := m.Do(context.Background(), "slow", func() (int, error) { return 3, nil })
	if err != nil || v != 1 {
		t.Fatalf("flight result lost: %d, %v", v, err)
	}
}

// TestMemoPanicSafety: a panicking compute function must propagate the
// panic to its own caller, hand every concurrent waiter an error instead
// of a hang, and forget the key so the next call can retry cleanly.
func TestMemoPanicSafety(t *testing.T) {
	m := NewMemo[int]()
	started := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		m.Do(context.Background(), "boom", func() (int, error) {
			close(started)
			<-release
			panic("kaboom")
		})
	}()
	<-started

	// Waiters join the in-flight computation; any straggler that arrives
	// after the key is forgotten recomputes and hits errRecompute instead.
	errRecompute := errors.New("recomputed")
	const waiters = 8
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := m.Do(context.Background(), "boom", func() (int, error) { return 0, errRecompute })
			errs <- err
		}()
	}
	// Give the waiters a moment to join the flight, then let it blow up.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if r := <-leaderDone; r == nil {
		t.Fatal("panic did not propagate to the computing caller")
	}
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("waiter got nil error from panicked flight")
		}
	}
	// The key must be retryable after the panic (a straggler waiter may
	// have recomputed and memoized errRecompute; forget it first so this
	// checks the panicked flight specifically was not cached).
	m.forget("boom")
	v, err := m.Do(context.Background(), "boom", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after panic = %d, %v", v, err)
	}
}

func TestMemoKeys(t *testing.T) {
	m := NewMemo[int]()
	ctx := context.Background()
	for _, k := range []string{"c", "a", "b"} {
		if _, err := m.Do(ctx, k, func() (int, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Keys()
	want := []string{"a", "b", "c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Keys = %v, want %v", got, want)
	}
}

func TestMemoEvictIf(t *testing.T) {
	m := NewMemo[int]()
	ctx := context.Background()
	for _, k := range []string{"keep-1", "drop-1", "drop-2", "keep-2"} {
		if _, err := m.Do(ctx, k, func() (int, error) { return 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	var calls atomic.Int64
	recount := func(k string) (int, error) { calls.Add(1); return 2, nil }

	n := m.EvictIf(func(key string) bool { return key[:4] == "drop" })
	if n != 2 {
		t.Fatalf("EvictIf evicted %d entries, want 2", n)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", m.Len())
	}
	// Evicted keys recompute; surviving keys stay memoized.
	for _, k := range []string{"drop-1", "drop-2", "keep-1", "keep-2"} {
		if _, err := m.Do(ctx, k, func() (int, error) { return recount(k) }); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("recomputed %d entries, want 2", calls.Load())
	}
}

func TestMemoEvictIfSkipsInFlight(t *testing.T) {
	m := NewMemo[int]()
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.Do(context.Background(), "inflight", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	// The in-flight entry must survive even when the predicate matches it.
	if n := m.EvictIf(func(string) bool { return true }); n != 0 {
		t.Fatalf("EvictIf evicted %d in-flight entries, want 0", n)
	}
	close(release)
	<-done
	if n := m.EvictIf(func(string) bool { return true }); n != 1 {
		t.Fatalf("EvictIf after completion evicted %d, want 1", n)
	}
}

// TestMemoAlias: a completed entry answers at its one second address,
// and Resolve counts a hit only when it finds one.
func TestMemoAlias(t *testing.T) {
	m := NewMemo[int]()
	ctx := context.Background()
	a, b := Addr{1}, Addr{2}
	if _, err := m.Do(ctx, "k", func() (int, error) { return 42, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Resolve(a); ok {
		t.Fatal("Resolve found an address nobody gave")
	}
	if hits, misses := m.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("a failed Resolve counted: stats = (%d, %d), want (0, 1)", hits, misses)
	}
	if !m.Alias("k", a) {
		t.Fatal("Alias of a completed entry = false")
	}
	if m.Alias("k", b) {
		t.Error("an entry took a second address")
	}
	if _, err := m.Do(ctx, "k2", func() (int, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	if m.Alias("k2", a) {
		t.Error("an address moved to another entry")
	}
	for i := 0; i < 3; i++ {
		if v, ok := m.Resolve(a); !ok || v != 42 {
			t.Fatalf("Resolve = %d, %v, want 42, true", v, ok)
		}
	}
	if _, ok := m.Resolve(b); ok {
		t.Error("the refused address resolves")
	}
	if hits, misses := m.Stats(); hits != 3 || misses != 2 {
		t.Errorf("stats = (%d, %d), want (3, 2)", hits, misses)
	}
	if n := m.Aliases(); n != 1 {
		t.Errorf("Aliases = %d, want 1", n)
	}
}

// TestMemoAliasNeedsCompletedSuccess: a missing key, a flight still
// running and a memoized error get no address.
func TestMemoAliasNeedsCompletedSuccess(t *testing.T) {
	m := NewMemo[int]()
	ctx := context.Background()
	if m.Alias("missing", Addr{1}) {
		t.Error("Alias of a missing key = true")
	}
	m.Do(ctx, "failed", func() (int, error) { return 0, errors.New("boom") })
	if m.Alias("failed", Addr{2}) {
		t.Error("Alias of a memoized error = true")
	}

	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		m.Do(ctx, "flight", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	if m.Alias("flight", Addr{3}) {
		t.Error("Alias of an in-flight entry = true")
	}
	close(release)
	<-done
	if !m.Alias("flight", Addr{3}) {
		t.Error("Alias after the flight completed = false")
	}
	if n := m.Aliases(); n != 1 {
		t.Errorf("Aliases = %d, want 1", n)
	}
}

// TestMemoForgetDropsAlias: forgetting or evicting an entry drops its
// address, and recomputing the key does not bring the address back.
func TestMemoForgetDropsAlias(t *testing.T) {
	m := NewMemo[int]()
	ctx := context.Background()
	for _, k := range []string{"forget", "evict", "keep"} {
		m.Do(ctx, k, func() (int, error) { return len(k), nil })
	}
	m.Alias("forget", Addr{1})
	m.Alias("evict", Addr{2})
	m.Alias("keep", Addr{3})

	m.Forget("forget")
	if n := m.EvictIf(func(k string) bool { return k == "evict" }); n != 1 {
		t.Fatalf("EvictIf = %d, want 1", n)
	}
	m.Do(ctx, "forget", func() (int, error) { return 99, nil })
	for _, a := range []Addr{{1}, {2}} {
		if v, ok := m.Resolve(a); ok {
			t.Errorf("address %d of a dropped entry resolves to %d", a[0], v)
		}
	}
	if v, ok := m.Resolve(Addr{3}); !ok || v != 4 {
		t.Errorf("surviving address = %d, %v, want 4, true", v, ok)
	}
	if n := m.Aliases(); n != 1 {
		t.Errorf("Aliases = %d, want 1", n)
	}
	if !m.Alias("forget", Addr{1}) {
		t.Error("a recomputed entry cannot take the freed address")
	}
}

// TestMemoAliasConcurrent runs Do, Alias, Resolve and Forget on one key
// from many goroutines; under -race it checks that a resolved value is
// published with its entry.
func TestMemoAliasConcurrent(t *testing.T) {
	m := NewMemo[*int]()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (g + i) % 4 {
				case 0, 1:
					v, err := m.Do(ctx, "k", func() (*int, error) { x := 5; return &x, nil })
					if err != nil || *v != 5 {
						t.Errorf("Do = %v, %v", v, err)
						return
					}
					m.Alias("k", Addr{9})
				case 2:
					if v, ok := m.Resolve(Addr{9}); ok && *v != 5 {
						t.Errorf("Resolve = %d", *v)
					}
				case 3:
					if i%16 == 3 {
						m.Forget("k")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Aliases(); n > 1 {
		t.Errorf("Aliases = %d, want at most 1", n)
	}
}
