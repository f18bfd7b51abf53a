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
//
// A completed, successful entry may also get one second address (Alias),
// a fixed-size digest under which Resolve finds it without its key.
type Memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[V]
	// addrs holds every entry's second address. An entry is in it exactly
	// while it is in entries, has completed without error, and was
	// aliased. It is made by the first Alias.
	addrs map[Addr]*memoEntry[V]

	hits, misses atomic.Int64
}

type memoEntry[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
	// addr is the entry's second address when addrs maps it to the
	// entry; otherwise it means nothing.
	addr Addr
}

// Addr is a second address for a memoized value: a digest, such as the
// sha256 of the input the value was computed from, that names it more
// cheaply than its key can be derived.
type Addr [32]byte

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
	if e, ok := m.entries[key]; ok {
		m.drop(key, e)
	}
	m.mu.Unlock()
}

// drop removes key's entry e and its second address. m.mu must be held.
func (m *Memo[V]) drop(key string, e *memoEntry[V]) {
	if m.addrs[e.addr] == e {
		delete(m.addrs, e.addr)
	}
	delete(m.entries, key)
}

// Alias gives key's entry the second address addr and reports whether it
// did. It does nothing unless the entry has completed without error. An
// entry keeps the first address it is given, an address names one entry,
// and forgetting or evicting the entry drops its address.
func (m *Memo[V]) Alias(key string, addr Addr) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[key]
	if !ok || m.addrs[e.addr] == e || m.addrs[addr] != nil {
		return false
	}
	select {
	case <-e.done:
	default:
		return false // in flight
	}
	if e.err != nil {
		return false
	}
	if m.addrs == nil {
		m.addrs = map[Addr]*memoEntry[V]{}
	}
	e.addr = addr
	m.addrs[addr] = e
	return true
}

// Resolve returns the value whose entry has the second address addr,
// counting a hit as Do does. It reports false, and counts nothing, when
// no entry in the table has that address.
func (m *Memo[V]) Resolve(addr Addr) (V, bool) {
	m.mu.Lock()
	e := m.addrs[addr]
	m.mu.Unlock()
	if e == nil {
		var zero V
		return zero, false
	}
	m.hits.Add(1)
	return e.val, true
}

// Aliases returns the number of entries that have a second address.
func (m *Memo[V]) Aliases() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.addrs)
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
			m.drop(k, e)
			n++
		}
	}
	return n
}
