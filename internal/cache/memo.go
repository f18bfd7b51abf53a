// Package cache provides Memo, a concurrency-safe memoization table with
// singleflight deduplication, and ForEach, the bounded fan-out that grids
// of memoized work run on. (The data-cache timing model that used to
// share this package lives in internal/memhier.)
package cache

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Memo is a concurrency-safe memoization table with singleflight
// deduplication: however many goroutines ask for the same key
// concurrently, the compute function runs exactly once and every caller
// shares the result. It backs the experiment harness's artifact store,
// where grid cells running in parallel must never rebuild the same
// compiled program, reference run or measurement.
//
// Successful results (and non-context errors) are memoized forever.
// Results that fail with context.Canceled or context.DeadlineExceeded are
// forgotten so a later call under a live context can retry.
type Memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[V]

	hits, misses atomic.Int64
}

type memoEntry[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// NewMemo returns an empty memo table.
func NewMemo[V any]() *Memo[V] {
	return &Memo[V]{entries: map[string]*memoEntry[V]{}}
}

// Do returns the value for key, computing it with fn if no flight for the
// key has completed yet. Concurrent callers for the same key block until
// the single in-flight computation finishes (or until their own ctx is
// cancelled, in which case they return ctx's error without disturbing the
// flight). fn itself is responsible for honoring ctx.
//
// If fn panics, the panic propagates to the caller that ran it, the key
// is forgotten, and every waiter receives an error instead of blocking
// forever — a must for servers that recover panics per request.
func (m *Memo[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, err
	}

	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		m.hits.Add(1)
		select {
		case <-e.done:
			return e.val, e.err
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()
	m.misses.Add(1)

	defer func() {
		if r := recover(); r != nil {
			e.err = fmt.Errorf("cache: computing %q panicked: %v", key, r)
			m.forget(key)
			close(e.done)
			panic(r)
		}
	}()
	e.val, e.err = fn()
	if e.err != nil && isContextErr(e.err) {
		// Do not poison the key with a cancellation: drop the entry so a
		// later call (under a fresh context) recomputes it.
		m.forget(key)
	}
	close(e.done)
	return e.val, e.err
}

func (m *Memo[V]) forget(key string) {
	m.mu.Lock()
	delete(m.entries, key)
	m.mu.Unlock()
}

// Forget drops the memoized entry for key, if any. Callers use it to
// un-cache results that must not outlive the conditions that produced
// them — for example a server's admission-queue rejection, which says
// nothing about the request itself.
func (m *Memo[V]) Forget(key string) { m.forget(key) }

// Stats returns the number of lookups served from the table and the
// number that ran the compute function.
func (m *Memo[V]) Stats() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}

// Len returns the number of memoized entries.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Keys returns every memoized key (including keys whose computation is
// still in flight) in sorted order.
func (m *Memo[V]) Keys() []string {
	m.mu.Lock()
	keys := make([]string, 0, len(m.entries))
	for k := range m.entries {
		keys = append(keys, k)
	}
	m.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// EvictIf drops every completed entry whose key satisfies pred and
// returns the number evicted. In-flight entries are skipped: evicting a
// computation that waiters are blocked on would detach them from its
// result, and its key will still be present for a later sweep.
func (m *Memo[V]) EvictIf(pred func(key string) bool) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for k, e := range m.entries {
		select {
		case <-e.done:
		default:
			continue // in flight
		}
		if pred(k) {
			delete(m.entries, k)
			n++
		}
	}
	return n
}
