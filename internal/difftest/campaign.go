package difftest

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"boosting/internal/sim"
	"boosting/internal/testgen"
)

// CampaignOptions parameterizes a fuzzing campaign.
type CampaignOptions struct {
	// Duration bounds wall-clock time (0 = run until ctx is cancelled or
	// MaxPrograms is reached).
	Duration time.Duration
	// Parallel is the worker count (0 = 1).
	Parallel int
	// Seed is the base campaign seed; worker i's k-th program uses seed
	// Seed + sequential counter, so a campaign is reproducible modulo
	// which worker got which seed (the checked behavior is seed-local).
	Seed int64
	// MaxPrograms bounds the number of programs checked (0 = unbounded).
	MaxPrograms int64
	// Full selects the full configuration matrix (ablations and
	// intermediate boost levels) instead of the quick set.
	Full bool
	// Inject breaks the simulated squash hardware; used to validate that
	// a campaign detects a planted bug end to end.
	Inject sim.FaultInjection
	// ShrinkBudget bounds oracle runs per finding during minimization
	// (0 = 300).
	ShrinkBudget int
	// CorpusDir, when set, persists every minimized finding as a corpus
	// entry for the regression suite.
	CorpusDir string
	// MaxFindings stops the campaign early once this many divergent seeds
	// were collected (0 = 10; shrinking is expensive and findings beyond a
	// handful are almost always duplicates).
	MaxFindings int
	// Log receives progress lines (nil = silent).
	Log func(format string, args ...any)
}

func (o CampaignOptions) parallel() int {
	if o.Parallel < 1 {
		return 1
	}
	return o.Parallel
}

func (o CampaignOptions) shrinkBudget() int {
	if o.ShrinkBudget <= 0 {
		return 300
	}
	return o.ShrinkBudget
}

func (o CampaignOptions) maxFindings() int {
	if o.MaxFindings <= 0 {
		return 10
	}
	return o.MaxFindings
}

func (o CampaignOptions) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Finding is one divergent seed, with its shrunk reproducer.
type Finding struct {
	// Seed and Shape regenerate the original failing recipe.
	Seed  int64          `json:"seed"`
	Shape testgen.Config `json:"shape"`
	// Divergences are the oracle failures of the original program.
	Divergences []Divergence `json:"divergences"`
	// MinimizedDivergences are the oracle failures of the shrunk recipe —
	// shrinking only preserves "some divergence exists", so the failing
	// configurations can differ from the original's. The corpus entry
	// records these, not the original's.
	MinimizedDivergences []Divergence `json:"minimizedDivergences,omitempty"`
	// Recipe and Minimized are the encoded original and shrunk recipes.
	Recipe    string `json:"recipe"`
	Minimized string `json:"minimized"`
	// Segments counts the minimized recipe's tree segments.
	Segments int `json:"segments"`
	// ShrinkAttempts is the number of oracle runs minimization spent.
	ShrinkAttempts int `json:"shrinkAttempts"`
	// CorpusPath is where the reproducer was persisted ("" = not saved).
	CorpusPath string `json:"corpusPath,omitempty"`
}

// CampaignStats summarizes a campaign; it marshals to the JSON the
// boostfuzz CLI emits.
type CampaignStats struct {
	Programs  int64         `json:"programs"`
	Divergent int64         `json:"divergent"`
	Elapsed   time.Duration `json:"elapsedNs"`
	Seconds   float64       `json:"elapsedSeconds"`
	Rate      float64       `json:"programsPerSecond"`
	Findings  []Finding     `json:"findings,omitempty"`
}

// RunCampaign fuzzes until the duration, program budget, finding budget or
// context expires: each seed derives a random program shape and recipe,
// runs the full differential oracle, and shrinks + persists any
// divergence. The returned error reports infrastructure failures
// (generator bugs, unwritable corpus); divergences are data, not errors.
func RunCampaign(ctx context.Context, opt CampaignOptions) (*CampaignStats, error) {
	outer := ctx // shrinking survives the duration deadline, not hard cancel
	if opt.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Duration)
		defer cancel()
	}
	start := time.Now()
	checkOpt := Options{Inject: opt.Inject}
	if opt.Full {
		checkOpt.Configs = Configs(true)
	}

	var (
		next     atomic.Int64 // seed offset counter
		programs atomic.Int64
		mu       sync.Mutex // guards findings and firstErr
		findings []Finding
		firstErr error
		wg       sync.WaitGroup
	)
	done := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil || len(findings) >= opt.maxFindings()
	}

	for w := 0; w < opt.parallel(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !done() {
				n := next.Add(1) - 1
				if opt.MaxPrograms > 0 && n >= opt.MaxPrograms {
					return
				}
				seed := opt.Seed + n
				shape := testgen.RandomShape(seed)
				rec := testgen.Derive(seed, shape)
				divs, err := CheckRecipe(rec, checkOpt)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("seed %d: %w", seed, err)
					}
					mu.Unlock()
					return
				}
				programs.Add(1)
				if len(divs) == 0 {
					continue
				}
				f, err := shrinkFinding(outer, seed, shape, rec, divs, checkOpt, opt)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					findings = append(findings, f)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	stats := &CampaignStats{
		Programs:  programs.Load(),
		Divergent: int64(len(findings)),
		Elapsed:   time.Since(start),
		Findings:  findings,
	}
	stats.Seconds = stats.Elapsed.Seconds()
	if stats.Seconds > 0 {
		stats.Rate = float64(stats.Programs) / stats.Seconds
	}
	return stats, firstErr
}

// shrinkFinding minimizes one divergent seed and optionally persists it.
// Minimization keeps running after the campaign's duration deadline — a
// found bug is worth finishing — but a hard cancellation of the caller's
// context makes every candidate "pass", which stops the shrinker at the
// current (still-failing) recipe.
func shrinkFinding(ctx context.Context, seed int64, shape testgen.Config, rec testgen.Recipe,
	divs []Divergence, checkOpt Options, opt CampaignOptions) (Finding, error) {
	opt.logf("seed %d: %d divergences (first: %s); shrinking", seed, len(divs), divs[0])
	res := Shrink(rec, func(r testgen.Recipe) bool {
		if ctx.Err() != nil {
			return false
		}
		d, err := CheckRecipe(r, checkOpt)
		return err == nil && len(d) > 0
	}, opt.shrinkBudget())

	// Re-run the oracle on the minimized recipe: shrinking only preserves
	// "some divergence exists", so the reproducer must be re-attributed —
	// the failing configurations may have shifted during minimization.
	// Fall back to the original attribution if the re-check cannot run
	// (cancelled context).
	minDivs := divs
	if ctx.Err() == nil {
		if d, err := CheckRecipe(res.Recipe, checkOpt); err == nil && len(d) > 0 {
			minDivs = d
		}
	}

	orig, err := testgen.EncodeRecipe(rec)
	if err != nil {
		return Finding{}, err
	}
	min, err := testgen.EncodeRecipe(res.Recipe)
	if err != nil {
		return Finding{}, err
	}
	f := Finding{
		Seed: seed, Shape: shape, Divergences: divs, MinimizedDivergences: minDivs,
		Recipe: orig, Minimized: min,
		Segments: res.Segments, ShrinkAttempts: res.Attempts,
	}
	if opt.CorpusDir != "" {
		name := fmt.Sprintf("finding-seed%d", seed)
		note := fmt.Sprintf("boostfuzz finding: %s", minDivs[0])
		entry, err := NewEntry(name, res.Recipe, configNames(minDivs), note)
		if err != nil {
			return Finding{}, err
		}
		path, err := WriteEntry(opt.CorpusDir, entry)
		if err != nil {
			return Finding{}, err
		}
		f.CorpusPath = path
		opt.logf("seed %d: reproducer saved to %s (%d segments, %d oracle runs)",
			seed, path, res.Segments, res.Attempts)
	} else {
		opt.logf("seed %d: shrunk to %d segments in %d oracle runs", seed, res.Segments, res.Attempts)
	}
	return f, nil
}

// configNames collects the distinct failing configuration names of a
// divergence set, preserving first-seen order.
func configNames(divs []Divergence) []string {
	var names []string
	seen := map[string]bool{}
	for _, d := range divs {
		if !seen[d.Config] {
			seen[d.Config] = true
			names = append(names, d.Config)
		}
	}
	return names
}
