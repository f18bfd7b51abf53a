// Package memhier models a configurable memory hierarchy: a two-level
// set-associative cache with miss-status holding registers (MSHRs), a
// store/write buffer, and pluggable hardware prefetchers. It extends the
// paper's evaluation, which assumes a perfect memory system and notes
// (§4.3): "The true speedup of our superscalar processor over a scalar
// processor is dependent upon the effectiveness of the memory system."
// Plugging a hierarchy into the timing models quantifies that caveat —
// and exposes the interaction the paper could not study: boosting hoists
// loads above branches, so speculative misses fetch lines (and charge
// stall cycles) for work that may be squashed.
//
// The model is strictly timing-only. Access takes an address, a static
// instruction ID and the current cycle, and returns stall cycles; it
// never reads or writes data, so architectural outputs, store streams and
// squash semantics are byte-identical with the hierarchy on or off — an
// invariant the golden-trace suite and the difftest mem axis enforce.
// Every component is deterministic (PolicyRandom uses a fixed-seed
// xorshift), so the same access sequence always produces the same stall
// sequence, which keeps the fast core and its oracle interpreter
// cycle-identical.
//
// Timing semantics, in the order Access applies them:
//
//   - Completed fills drain: every outstanding line whose fill time has
//     passed is installed into L1 (and its MSHR freed) before the access
//     is serviced.
//   - L1 hit: no stall.
//   - Miss on an in-flight line (MSHR merge): the access stalls only
//     until that fill completes — the mechanism that makes prefetching
//     and the write buffer overlap memory latency with execution.
//   - Miss needing a new MSHR when all are busy: a structural stall until
//     the earliest outstanding fill frees its register.
//   - Demand load miss: blocks for the full fill latency (L2 hit latency,
//     plus main-memory latency on an L2 miss) — the machine is in-order.
//   - Store miss with a write buffer: the store retires into the buffer
//     without stalling (unless the buffer is full) and its line fills in
//     the background, occupying an MSHR until done.
//
// Prefetchers issue background fills into free MSHRs and never stall the
// machine; their accuracy (useful/issued), coverage (useful over demand
// misses) and timeliness (late arrivals) are counted in Stats.
package memhier

import (
	"fmt"
	"strings"
)

// Config describes the full hierarchy. The zero value is invalid; start
// from Default or SingleLevel.
type Config struct {
	// L1 is the first-level cache, probed on every access.
	L1 CacheConfig
	// L2 is the optional second level; Sets == 0 disables it (L1 misses
	// then pay MemLatency directly).
	L2 CacheConfig
	// L2Latency is the added stall for an L1 miss that hits in L2;
	// MemLatency is the further cost of filling from main memory.
	L2Latency, MemLatency int64
	// MSHRs bounds outstanding line fills (misses, write-buffer drains
	// and prefetches). 0 means the default of 4.
	MSHRs int
	// WriteBuffer is the store/write buffer depth: store misses retire
	// into it without stalling while their lines fill in the background.
	// 0 disables it (store misses block like loads).
	WriteBuffer int
	// Prefetch selects the hardware prefetcher: "" or "none", "stride"
	// (per-instruction stride table) or "stream" (sequential stream
	// detector).
	Prefetch string
	// PrefetchDegree is how many lines ahead the prefetcher runs
	// (0 = default of 2).
	PrefetchDegree int
}

// Default returns a hierarchy typical of the paper's era (R2000-class
// systems): an 8 KiB direct-mapped L1 with 16-byte lines backed by a
// 32 KiB 4-way L2, a 6-cycle L2 hit, a 24-cycle memory fill, 4 MSHRs and
// a 4-entry write buffer, no prefetching.
func Default() Config {
	return Config{
		L1:          CacheConfig{Sets: 512, Ways: 1, LineBytes: 16},
		L2:          CacheConfig{Sets: 256, Ways: 4, LineBytes: 32},
		L2Latency:   6,
		MemLatency:  24,
		MSHRs:       4,
		WriteBuffer: 4,
	}
}

// SingleLevel returns a one-level blocking configuration equivalent to
// the original data-cache extension that predated this package: every
// miss (load or store) stalls for missPenalty cycles, no second level,
// no write buffer, no prefetching.
func SingleLevel(sets, ways, lineBytes int, missPenalty int64) Config {
	return Config{
		L1:         CacheConfig{Sets: sets, Ways: ways, LineBytes: lineBytes},
		MemLatency: missPenalty,
	}
}

// Validate checks the configuration without building a hierarchy.
func (c Config) Validate() error {
	if err := c.L1.validate("L1"); err != nil {
		return err
	}
	if c.HasL2() {
		if err := c.L2.validate("L2"); err != nil {
			return err
		}
	}
	if c.L2Latency < 0 || c.MemLatency < 0 {
		return fmt.Errorf("memhier: negative latency in %+v", c)
	}
	if c.MSHRs < 0 || c.WriteBuffer < 0 || c.PrefetchDegree < 0 {
		return fmt.Errorf("memhier: negative structure size in %+v", c)
	}
	switch c.Prefetch {
	case "", "none", "stride", "stream":
	default:
		return fmt.Errorf("memhier: unknown prefetcher %q (want none, stride or stream)", c.Prefetch)
	}
	return nil
}

// HasL2 reports whether a second level is configured.
func (c Config) HasL2() bool { return c.L2.Sets > 0 }

func (c Config) mshrs() int {
	if c.MSHRs == 0 {
		return 4
	}
	return c.MSHRs
}

func (c Config) prefetchDegree() int {
	if c.PrefetchDegree == 0 {
		return 2
	}
	return c.PrefetchDegree
}

// Key renders the configuration as a canonical cache-key fragment: every
// field that changes timing appears, so two distinct configurations never
// collide in a memo or response cache.
func (c Config) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "l1=%d.%d.%d.%s", c.L1.Sets, c.L1.Ways, c.L1.LineBytes, c.L1.policyName())
	if c.HasL2() {
		fmt.Fprintf(&sb, ";l2=%d.%d.%d.%s", c.L2.Sets, c.L2.Ways, c.L2.LineBytes, c.L2.policyName())
	}
	fmt.Fprintf(&sb, ";lat=%d.%d;mshr=%d;wb=%d;pf=%s.%d",
		c.L2Latency, c.MemLatency, c.mshrs(), c.WriteBuffer, c.prefetchName(), c.prefetchDegree())
	return sb.String()
}

func (cc CacheConfig) policyName() Policy {
	if cc.Policy == "" {
		return PolicyLRU
	}
	return cc.Policy
}

func (c Config) prefetchName() string {
	if c.Prefetch == "" {
		return "none"
	}
	return c.Prefetch
}

// Stats counts the hierarchy's activity. All counters are monotonically
// increasing over one Hierarchy's lifetime.
type Stats struct {
	// Accesses, Loads and Stores count demand accesses.
	Accesses, Loads, Stores int64
	// L1Hits/L1Misses count demand L1 probes; L2Hits/L2Misses count L2
	// probes (demand fills and prefetch fills alike).
	L1Hits, L1Misses int64
	L2Hits, L2Misses int64
	// DemandFills counts demand misses that had to start their own fill
	// (not merged into an in-flight line).
	DemandFills int64
	// MSHRMerges counts demand misses that merged into an outstanding
	// fill (a prefetch or a write-buffer drain already in flight).
	MSHRMerges int64
	// MSHRFullStalls and WriteBufferStalls count cycles lost waiting for
	// a free MSHR or write-buffer slot (structural hazards).
	MSHRFullStalls, WriteBufferStalls int64
	// StallCycles is the total stall cycles this hierarchy charged.
	StallCycles int64
	// PrefIssued counts prefetch fills started; PrefUseful those whose
	// line served a later demand access (in flight or after install);
	// PrefLate the useful ones that arrived too late to hide the full
	// latency (the demand access still stalled).
	PrefIssued, PrefUseful, PrefLate int64
}

// L1MissRate returns L1 misses over demand accesses (0 with no accesses).
func (s *Stats) L1MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.Accesses)
}

// L2MissRate returns L2 misses over L2 probes (0 with no probes).
func (s *Stats) L2MissRate() float64 {
	if s.L2Hits+s.L2Misses == 0 {
		return 0
	}
	return float64(s.L2Misses) / float64(s.L2Hits+s.L2Misses)
}

// PrefetchAccuracy returns useful prefetches over issued (0 with none
// issued).
func (s *Stats) PrefetchAccuracy() float64 {
	if s.PrefIssued == 0 {
		return 0
	}
	return float64(s.PrefUseful) / float64(s.PrefIssued)
}

// PrefetchCoverage returns the fraction of misses the prefetcher served:
// useful prefetches over useful plus demand-started fills.
func (s *Stats) PrefetchCoverage() float64 {
	if s.PrefUseful+s.DemandFills == 0 {
		return 0
	}
	return float64(s.PrefUseful) / float64(s.PrefUseful+s.DemandFills)
}

// fill is one outstanding line fill: an MSHR entry, optionally doubling
// as a write-buffer entry (store) or carrying a prefetch tag.
type fill struct {
	line     uint32
	readyAt  int64
	prefetch bool
	store    bool
}

// Hierarchy is the runtime state of one configured memory hierarchy. It
// is deterministic and not safe for concurrent use; build one per
// simulated execution.
type Hierarchy struct {
	cfg   Config
	l1    *cache
	l2    *cache
	fills []fill // outstanding MSHRs, unordered
	pf    prefetcher
	stats Stats
}

// New builds a hierarchy, validating the configuration.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg, l1: newCache(cfg.L1)}
	if cfg.HasL2() {
		h.l2 = newCache(cfg.L2)
	}
	switch cfg.Prefetch {
	case "stride":
		h.pf = newStridePrefetcher(cfg.prefetchDegree())
	case "stream":
		h.pf = newStreamPrefetcher(cfg.prefetchDegree())
	}
	return h, nil
}

// Config returns the configuration the hierarchy was built from.
func (h *Hierarchy) Config() Config { return h.cfg }

// Stats returns a snapshot of the activity counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Access services one demand access at cycle now from the static
// instruction pc and returns the stall cycles to charge. now must be
// non-decreasing across calls.
func (h *Hierarchy) Access(now int64, pc int, addr uint32, store bool) int64 {
	h.stats.Accesses++
	if store {
		h.stats.Stores++
	} else {
		h.stats.Loads++
	}
	h.drain(now)
	line := h.l1.lineOf(addr)
	if hit, wasPref := h.l1.probe(line); hit {
		h.stats.L1Hits++
		if wasPref {
			h.stats.PrefUseful++
		}
		h.prefetchAfter(now, pc, addr, false, wasPref)
		return 0
	}
	h.stats.L1Misses++
	var stall int64
	prefServed := false
	if f := h.inflight(line); f != nil {
		// MSHR merge: stall only until the in-flight fill completes.
		h.stats.MSHRMerges++
		if f.prefetch {
			h.stats.PrefUseful++
			if f.readyAt > now {
				h.stats.PrefLate++
			}
			f.prefetch = false // count each prefetch at most once
			prefServed = true
		}
		if wait := f.readyAt - now; wait > 0 {
			stall += wait
			now += wait
		}
		h.drain(now)
	} else {
		stall += h.startDemandFill(&now, line, store)
	}
	h.prefetchAfter(now, pc, addr, true, prefServed)
	h.stats.StallCycles += stall
	return stall
}

// startDemandFill allocates an MSHR (stalling if none is free), computes
// the fill latency through L2, and either blocks for it (loads, or stores
// without a write buffer) or retires the store into the write buffer.
func (h *Hierarchy) startDemandFill(now *int64, line uint32, store bool) int64 {
	var stall int64
	h.stats.DemandFills++
	if wait := h.freeMSHR(*now); wait > 0 {
		h.stats.MSHRFullStalls += wait
		stall += wait
		*now += wait
		h.drain(*now)
	}
	if store && h.cfg.WriteBuffer > 0 {
		if wait := h.freeWriteBuffer(*now); wait > 0 {
			h.stats.WriteBufferStalls += wait
			stall += wait
			*now += wait
			h.drain(*now)
		}
		lat := h.fillLatency(line)
		h.fills = append(h.fills, fill{line: line, readyAt: *now + lat, store: true})
		return stall
	}
	// Blocking demand fill: the in-order machine waits for the line.
	lat := h.fillLatency(line)
	stall += lat
	*now += lat
	h.l1.fill(line, false)
	return stall
}

// drain installs every completed outstanding fill into L1 and frees its
// MSHR.
func (h *Hierarchy) drain(now int64) {
	for i := 0; i < len(h.fills); {
		if h.fills[i].readyAt <= now {
			h.l1.fill(h.fills[i].line, h.fills[i].prefetch)
			h.fills[i] = h.fills[len(h.fills)-1]
			h.fills = h.fills[:len(h.fills)-1]
		} else {
			i++
		}
	}
}

// inflight returns the outstanding fill for the line, if any.
func (h *Hierarchy) inflight(line uint32) *fill {
	for i := range h.fills {
		if h.fills[i].line == line {
			return &h.fills[i]
		}
	}
	return nil
}

// freeMSHR returns the cycles to wait until an MSHR is free (0 if one is
// free now).
func (h *Hierarchy) freeMSHR(now int64) int64 {
	if len(h.fills) < h.cfg.mshrs() {
		return 0
	}
	return h.earliest(false) - now
}

// freeWriteBuffer returns the cycles to wait until a write-buffer slot is
// free.
func (h *Hierarchy) freeWriteBuffer(now int64) int64 {
	n := 0
	for i := range h.fills {
		if h.fills[i].store {
			n++
		}
	}
	if n < h.cfg.WriteBuffer {
		return 0
	}
	return h.earliest(true) - now
}

// earliest returns the smallest readyAt among outstanding fills
// (storesOnly restricts to write-buffer entries). Callers only invoke it
// when at least one qualifying fill exists.
func (h *Hierarchy) earliest(storesOnly bool) int64 {
	var best int64 = -1
	for i := range h.fills {
		if storesOnly && !h.fills[i].store {
			continue
		}
		if best < 0 || h.fills[i].readyAt < best {
			best = h.fills[i].readyAt
		}
	}
	return best
}

// fillLatency probes (and on a miss, fills) L2 and returns the latency of
// bringing the L1 line in.
func (h *Hierarchy) fillLatency(l1Line uint32) int64 {
	if h.l2 == nil {
		return h.cfg.MemLatency
	}
	addr := l1Line * uint32(h.cfg.L1.LineBytes)
	l2Line := h.l2.lineOf(addr)
	if hit, _ := h.l2.probe(l2Line); hit {
		h.stats.L2Hits++
		return h.cfg.L2Latency
	}
	h.stats.L2Misses++
	h.l2.fill(l2Line, false)
	return h.cfg.L2Latency + h.cfg.MemLatency
}

// prefetchAfter trains the prefetcher on the access it just observed and
// lets it issue background fills.
func (h *Hierarchy) prefetchAfter(now int64, pc int, addr uint32, miss, prefHit bool) {
	if h.pf != nil {
		h.pf.observe(h, now, pc, addr, miss, prefHit)
	}
}

// prefetchLine issues one background fill for the L1 line containing
// addr, if it is not already present or in flight and an MSHR is free.
// Prefetches never stall the machine: with no free MSHR the request is
// dropped.
func (h *Hierarchy) prefetchLine(now int64, addr uint32) {
	line := h.l1.lineOf(addr)
	if h.l1.contains(line) || h.inflight(line) != nil {
		return
	}
	if len(h.fills) >= h.cfg.mshrs() {
		return
	}
	lat := h.fillLatency(line)
	h.fills = append(h.fills, fill{line: line, readyAt: now + lat, prefetch: true})
	h.stats.PrefIssued++
}
