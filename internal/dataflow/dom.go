package dataflow

import (
	"slices"

	"boosting/internal/prog"
)

// CFGInfo bundles orderings and dominance information for one procedure.
// Recovery blocks are excluded from all analyses (they are reachable only
// through the exception mechanism).
type CFGInfo struct {
	Proc *prog.Proc
	// RPO is the blocks in reverse postorder from the entry.
	RPO []*prog.Block
	// RPONum maps block ID to its reverse-postorder index (-1 if
	// unreachable or a recovery block).
	RPONum []int
	// IDom maps block ID to its immediate dominator (nil for entry and
	// unreachable blocks).
	IDom []*prog.Block
	// IPDom maps block ID to its immediate postdominator (nil for exit
	// blocks and blocks that cannot reach an exit).
	IPDom []*prog.Block
}

// Analyze computes orderings and dominance for p.
func Analyze(p *prog.Proc) *CFGInfo {
	n := maxBlockID(p) + 1
	doms := make([]*prog.Block, 2*n)
	orders := make([]*prog.Block, 2*len(p.Blocks))
	nums := make([]int, 2*n)
	for i := range nums {
		nums[i] = -1
	}
	info := &CFGInfo{
		Proc:   p,
		RPONum: nums[:n:n],
		IDom:   doms[:n:n],
		IPDom:  doms[n:],
	}

	// Dominators: the CFG forward from the entry.
	fwd := walk{num: info.RPONum, post: orders[:0:len(p.Blocks)]}
	fwd.visit(p.Entry)
	info.RPO = fwd.order()
	dominators(info.RPO, info.RPONum, false, info.IDom)

	// Postdominators: the reversed CFG from a virtual exit whose
	// successors are the reachable exit blocks (JR/HALT). Blocks that
	// cannot reach an exit keep a nil IPDom.
	bwd := walk{num: nums[n:], post: orders[len(p.Blocks):len(p.Blocks)], backward: true}
	for _, b := range info.RPO {
		if len(b.Succs) == 0 && bwd.num[b.ID] < 0 {
			bwd.visit(b)
		}
	}
	dominators(bwd.order(), bwd.num, true, info.IPDom)
	return info
}

func maxBlockID(p *prog.Proc) int {
	max := 0
	for _, b := range p.Blocks {
		if b.ID > max {
			max = b.ID
		}
	}
	return max
}

// walk is a depth-first search over a CFG's successors, or its
// predecessors when backward. num maps block ID to the block's position
// in reverse postorder, -1 for blocks not reached.
type walk struct {
	num      []int
	post     []*prog.Block
	backward bool
}

func (w *walk) visit(b *prog.Block) {
	w.num[b.ID] = 0
	next := b.Succs
	if w.backward {
		next = b.Preds
	}
	for _, s := range next {
		if w.num[s.ID] < 0 {
			w.visit(s)
		}
	}
	w.post = append(w.post, b)
}

// order returns the reached blocks in reverse postorder and numbers them.
func (w *walk) order() []*prog.Block {
	slices.Reverse(w.post)
	for i, b := range w.post {
		w.num[b.ID] = i
	}
	return w.post
}

// dominators fills idom, by block ID, with each block's immediate
// dominator, using Cooper, Harvey and Kennedy's iterative algorithm over
// order, the blocks a walk reached in reverse postorder, numbered by num.
// Forward, the root is order[0] and a block's predecessors are its Preds.
// Backward, the root is a virtual exit numbered before order[0]; a
// block's predecessors are its Succs, or the virtual exit when it has
// none, and a block whose immediate postdominator is the virtual exit
// keeps a nil entry, as do the root and blocks outside order.
func dominators(order []*prog.Block, num []int, backward bool, idom []*prog.Block) {
	off := 0 // node k+off is order[k]; node 0 is the root
	if backward {
		off = 1
	}
	m := len(order) + off
	edges := 0
	for _, b := range order {
		if backward {
			edges += max(len(b.Succs), 1)
		} else {
			edges += len(b.Preds)
		}
	}
	// One slab holds every node's dominator, the start of its
	// predecessor list and the lists.
	buf := make([]int32, 2*m+1+edges)
	dom, start, pred := buf[:m], buf[m:2*m+1], buf[2*m+1:2*m+1]
	for k, b := range order {
		start[k+off] = int32(len(pred))
		in := b.Preds
		if backward {
			in = b.Succs
			if len(in) == 0 {
				pred = append(pred, 0)
			}
		}
		for _, q := range in {
			if j := num[q.ID]; j >= 0 {
				pred = append(pred, int32(j+off))
			}
		}
	}
	start[m] = int32(len(pred))

	for i := range dom {
		dom[i] = -1
	}
	dom[0] = 0
	for changed := true; changed; {
		changed = false
		for v := 1; v < m; v++ {
			nd := int32(-1)
			for _, q := range pred[start[v]:start[v+1]] {
				switch {
				case dom[q] < 0: // not yet processed
				case nd < 0:
					nd = q
				default: // intersect: walk both fingers up to the common dominator
					for q != nd {
						for q > nd {
							q = dom[q]
						}
						for nd > q {
							nd = dom[nd]
						}
					}
				}
			}
			if nd >= 0 && dom[v] != nd {
				dom[v] = nd
				changed = true
			}
		}
	}
	for k, b := range order {
		if d := int(dom[k+off]) - off; k+off > 0 && d >= 0 {
			idom[b.ID] = order[d]
		}
	}
}

// Dominates reports whether a dominates b (reflexive).
func (info *CFGInfo) Dominates(a, b *prog.Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = info.IDom[b.ID]
	}
	return false
}

// PostDominates reports whether a postdominates b (reflexive).
func (info *CFGInfo) PostDominates(a, b *prog.Block) bool {
	seen := 0
	for b != nil && seen <= len(info.RPO)+1 {
		if a == b {
			return true
		}
		b = info.IPDom[b.ID]
		seen++
	}
	return false
}

// ControlEquivalent reports whether executing a implies executing b and
// vice versa: a dominates b and b postdominates a (paper §3.2.2's
// "control equivalence", the conditional-pair/equivalent-blocks notion).
// It is only meaningful when a appears before b on a path; callers pass
// (earlier, later).
func (info *CFGInfo) ControlEquivalent(earlier, later *prog.Block) bool {
	return info.Dominates(earlier, later) && info.PostDominates(later, earlier)
}
