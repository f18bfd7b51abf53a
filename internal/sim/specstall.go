package sim

// specStallTracker attributes memory-hierarchy stall cycles charged by
// boosted accesses to the boost level that incurred them, mirroring the
// exception shift buffer's level discipline: when a branch commits,
// level-1 stalls become architecturally useful work and deeper levels
// shift down one; when speculation is squashed (misprediction or boosted
// exception recovery), every outstanding cycle was wasted on a wrong path
// and is reported as SquashedMemStalls. The fast core and the oracle drive
// the tracker at identical points, so the derived statistics agree.
type specStallTracker struct {
	pending []int64 // index = boost level; [0] unused
}

func (t *specStallTracker) reset(maxLevel int) {
	if cap(t.pending) < maxLevel+1 {
		t.pending = make([]int64, maxLevel+1)
	} else {
		t.pending = t.pending[:maxLevel+1]
		clear(t.pending)
	}
}

// add records stall cycles incurred by an access boosted to level.
func (t *specStallTracker) add(level int, cycles int64) {
	t.pending[level] += cycles
}

// commit resolves one branch correctly: level-1 stalls paid for work that
// is now architectural, deeper levels move one branch closer to commit.
func (t *specStallTracker) commit() {
	if len(t.pending) > 2 {
		copy(t.pending[1:], t.pending[2:])
	}
	if len(t.pending) > 1 {
		t.pending[len(t.pending)-1] = 0
	}
}

// squash discards all outstanding speculative stalls and returns the
// total: cycles the machine spent waiting on memory for work it threw
// away.
func (t *specStallTracker) squash() int64 {
	var lost int64
	for i := 1; i < len(t.pending); i++ {
		lost += t.pending[i]
		t.pending[i] = 0
	}
	return lost
}
