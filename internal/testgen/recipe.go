package testgen

import (
	"encoding/json"
	"fmt"
)

// SegKind names the structural kind of one generated code segment.
type SegKind uint8

const (
	// SegStraight is a run of straight-line arithmetic (N instructions).
	SegStraight SegKind = iota
	// SegMemory is a run of in-bounds loads and stores (N memory ops).
	SegMemory
	// SegDiamond is an if/else: Body is the then-arm, Else the else-arm
	// (an empty Else is an if-without-else).
	SegDiamond
	// SegLoop is a bounded countdown loop: N trips over Body.
	SegLoop
	// SegCall is a call to the leaf procedure.
	SegCall
)

// String names the kind for logs and corpus headers.
func (k SegKind) String() string {
	switch k {
	case SegStraight:
		return "straight"
	case SegMemory:
		return "memory"
	case SegDiamond:
		return "diamond"
	case SegLoop:
		return "loop"
	case SegCall:
		return "call"
	}
	return fmt.Sprintf("SegKind(%d)", uint8(k))
}

// Segment is one node of a generation recipe's structure tree. Every
// instruction-level choice inside the segment (opcodes, register picks,
// immediates) is drawn from a private stream seeded by Seed, so editing or
// removing a sibling never perturbs this segment's code — the locality the
// delta-debugging shrinker depends on.
type Segment struct {
	Kind SegKind `json:"kind"`
	// Seed drives the segment's private instruction-choice stream.
	Seed uint64 `json:"seed"`
	// N is the instruction count (SegStraight), memory-op count
	// (SegMemory) or trip count (SegLoop).
	N int `json:"n,omitempty"`
	// Body is the loop body or the diamond's then-arm.
	Body []Segment `json:"body,omitempty"`
	// Else is the diamond's else-arm (empty = if-without-else).
	Else []Segment `json:"else,omitempty"`
}

// Recipe is the deterministic, serializable description of one generated
// program: Build(r) always constructs the same program, on every Go
// version, because all randomness flows through the package-private
// splitmix64 generator rather than math/rand's stream internals.
//
// Seed and Gen record provenance: Derive(Seed, Gen) reproduces Segments
// exactly. Shrunk recipes keep the original Seed/Gen but edited Segments.
type Recipe struct {
	// Seed is the campaign seed this recipe was derived from.
	Seed int64 `json:"seed"`
	// Gen is the generator configuration used by Derive.
	Gen Config `json:"gen"`
	// Regs is the virtual register working-set size.
	Regs int `json:"regs"`
	// WithCalls adds the leaf callee procedure (required by SegCall).
	WithCalls bool `json:"withCalls,omitempty"`
	// DataSeed and InitSeed drive the scratch-array contents and the
	// initial register values.
	DataSeed uint64 `json:"dataSeed"`
	InitSeed uint64 `json:"initSeed"`
	// Segments is the top-level structure list.
	Segments []Segment `json:"segments"`
}

// rng is a splitmix64 generator. Unlike math/rand, its output is defined
// by this file alone, so recipes replay identically across Go releases.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is irrelevant for test
// generation.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Derive expands a campaign seed and generator configuration into a full
// recipe. It is pure: the same (seed, cfg) always yields the same recipe.
func Derive(seed int64, cfg Config) Recipe {
	cfg = cfg.withDefaults()
	r := newRNG(uint64(seed))
	rec := Recipe{
		Seed:      seed,
		Gen:       cfg,
		Regs:      cfg.Regs,
		WithCalls: cfg.WithCalls,
		DataSeed:  r.next(),
		InitSeed:  r.next(),
	}
	for i := 0; i < cfg.Segments; i++ {
		rec.Segments = append(rec.Segments, deriveSegment(r, cfg.MaxDepth, cfg.WithCalls))
	}
	return rec
}

// deriveSegment mirrors the historical kind distribution: 40% straight
// line, 20% diamond and 20% loop (when depth remains), 10% memory traffic
// and 10% calls (when enabled).
func deriveSegment(r *rng, depth int, calls bool) Segment {
	choice := r.intn(10)
	switch {
	case choice < 3:
		return Segment{Kind: SegStraight, Seed: r.next(), N: 2 + r.intn(6)}
	case choice < 5 && depth > 0:
		s := Segment{Kind: SegDiamond, Seed: r.next()}
		// Else first to mirror emission order: an empty else-arm (1 in 3)
		// makes an if-without-else.
		if r.intn(3) > 0 {
			s.Else = []Segment{deriveSegment(r, depth-1, calls)}
		}
		s.Body = []Segment{deriveSegment(r, depth-1, calls)}
		return s
	case choice < 7 && depth > 0:
		return Segment{
			Kind: SegLoop, Seed: r.next(), N: 1 + r.intn(6),
			Body: []Segment{deriveSegment(r, depth-1, calls)},
		}
	case choice < 8:
		return Segment{Kind: SegMemory, Seed: r.next(), N: 1 + r.intn(3)}
	case choice < 9 && calls:
		return Segment{Kind: SegCall, Seed: r.next()}
	default:
		return Segment{Kind: SegStraight, Seed: r.next(), N: 2 + r.intn(6)}
	}
}

// RandomShape derives a generator configuration from a campaign seed, so
// a fuzzing campaign varies program shape (segment count, nesting depth,
// register pressure, calls) across seeds instead of exploring one corner
// of the space. Like Derive, it depends only on the in-package generator.
func RandomShape(seed int64) Config {
	r := newRNG(uint64(seed) * 0x9E3779B97F4A7C15)
	r.next() // decorrelate from Derive's first draws
	return Config{
		Segments:  4 + r.intn(9), // 4..12
		MaxDepth:  1 + r.intn(3), // 1..3
		Regs:      []int{4, 6, 8, 12}[r.intn(4)],
		WithCalls: r.intn(4) == 0,
	}
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.Segments == 0 {
		c.Segments = 6
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 2
	}
	if c.Regs == 0 {
		c.Regs = 8
	}
	return c
}

// NumSegments counts every segment in the tree, not just the top level;
// the shrinker reports minimality in these units.
func (r Recipe) NumSegments() int { return countSegments(r.Segments) }

func countSegments(segs []Segment) int {
	n := 0
	for _, s := range segs {
		n += 1 + countSegments(s.Body) + countSegments(s.Else)
	}
	return n
}

// HasCalls reports whether any segment in the tree is a SegCall.
func (r Recipe) HasCalls() bool { return hasCall(r.Segments) }

func hasCall(segs []Segment) bool {
	for _, s := range segs {
		if s.Kind == SegCall || hasCall(s.Body) || hasCall(s.Else) {
			return true
		}
	}
	return false
}

// MarshalJSON/UnmarshalJSON use the plain struct encoding; these named
// helpers exist so corpus files and CLI output agree on one compact form.

// EncodeRecipe renders the recipe as a single-line JSON document.
func EncodeRecipe(r Recipe) (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("testgen: encode recipe: %w", err)
	}
	return string(b), nil
}

// DecodeRecipe parses a recipe from its JSON form and bounds it so that
// Build stays total on adversarial input: a hand-edited (or fuzzed) recipe
// with an enormous segment tree or instruction count is rejected here, not
// materialized.
func DecodeRecipe(s string) (Recipe, error) {
	var r Recipe
	if err := json.Unmarshal([]byte(s), &r); err != nil {
		return Recipe{}, fmt.Errorf("testgen: decode recipe: %w", err)
	}
	if r.Regs < 2 {
		return Recipe{}, fmt.Errorf("testgen: decode recipe: register working set %d too small", r.Regs)
	}
	if r.Regs > 64 {
		return Recipe{}, fmt.Errorf("testgen: decode recipe: register working set %d too large", r.Regs)
	}
	if n := r.NumSegments(); n > 10_000 {
		return Recipe{}, fmt.Errorf("testgen: decode recipe: %d segments", n)
	}
	if err := checkBounds(r.Segments); err != nil {
		return Recipe{}, fmt.Errorf("testgen: decode recipe: %w", err)
	}
	return r, nil
}

func checkBounds(segs []Segment) error {
	for _, s := range segs {
		if s.N < 0 || s.N > 10_000 {
			return fmt.Errorf("segment count/trip bound %d out of range", s.N)
		}
		if err := checkBounds(s.Body); err != nil {
			return err
		}
		if err := checkBounds(s.Else); err != nil {
			return err
		}
	}
	return nil
}
