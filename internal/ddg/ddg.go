// Package ddg builds the data-dependence graph for a trace of basic
// blocks (paper §3.2.1: "During the construction of the trace, two data
// structures are built. One is a simple data dependence graph of all the
// instructions in the trace...").
//
// The graph covers register true/anti/output dependences, memory
// dependences (with a simple base+offset disambiguator), and ordering
// edges for side-effecting instructions. Control dependences are *not*
// represented — that is the whole point of boosting: "No edges are added
// to our data dependence graph to enforce control dependence constraints."
// Branch order is preserved structurally because branches never move out
// of their blocks.
package ddg

import (
	"fmt"
	"slices"

	"boosting/internal/isa"
	"boosting/internal/prog"
)

// DepKind classifies a dependence edge.
type DepKind uint8

const (
	// DepTrue is a read-after-write register dependence.
	DepTrue DepKind = iota
	// DepAnti is a write-after-read register dependence.
	DepAnti
	// DepOutput is a write-after-write register dependence.
	DepOutput
	// DepMem is a memory dependence (any of RAW/WAR/WAW through memory).
	DepMem
	// DepOrder is an ordering edge for side effects (OUT streams, calls,
	// and everything pinned around a barrier).
	DepOrder
)

// String names the dependence kind.
func (k DepKind) String() string {
	switch k {
	case DepTrue:
		return "true"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	case DepMem:
		return "mem"
	case DepOrder:
		return "order"
	}
	return "?"
}

// Edge is a dependence from an earlier instruction to a later one.
type Edge struct {
	To      *Node
	From    *Node
	Kind    DepKind
	Latency int
}

// Node is one instruction in the trace.
type Node struct {
	// Inst is the scheduler's working copy of the instruction; Boost is
	// filled in during code motion.
	Inst isa.Inst
	// Block is the block the instruction originally lives in.
	Block *prog.Block
	// BlockIdx is the block's position in the trace (0-based).
	BlockIdx int
	// InstIdx is the instruction's original index within its block.
	InstIdx int
	// Seq is the linearized position in the trace (construction order);
	// it defines "original program order" along the trace.
	Seq int
	// IsTerm marks the block terminator (branch/jump/call/ret/halt).
	IsTerm bool

	// Preds and Succs are incoming and outgoing dependence edges.
	Preds []*Edge
	Succs []*Edge
}

// String renders the node for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("[%d B%d.%d %s]", n.Seq, n.Block.ID, n.InstIdx, n.Inst.String())
}

// Graph is the dependence graph of one trace.
type Graph struct {
	Nodes []*Node
	// ByBlock groups nodes by trace block index, in original order.
	ByBlock [][]*Node
}

// Options tunes graph construction.
type Options struct {
	// NoDisambiguation disables the base+offset memory disambiguator,
	// making every load depend on every earlier store (ablation knob;
	// the paper's conclusion calls for "better memory disambiguation").
	NoDisambiguation bool
}

// memRef describes a memory access for disambiguation: address = base
// register version + constant offset.
type memRef struct {
	baseVer int // version number of the base register at access time
	base    isa.Reg
	off     int32
	size    int32
}

// overlaps conservatively decides whether two references may touch the
// same bytes. Identical base version ⇒ compare offset ranges exactly;
// otherwise assume overlap.
func (a memRef) overlaps(b memRef) bool {
	if a.base == b.base && a.baseVer == b.baseVer {
		return a.off < b.off+b.size && b.off < a.off+a.size
	}
	return true
}

// A Builder builds dependence graphs. It keeps its working tables from
// one graph to the next, so a scheduler that builds a graph per trace
// allocates little beyond the graphs themselves. The zero value is ready
// to use; a Builder is not safe for concurrent use.
type Builder struct {
	// edges collects the graph's edges. Every edge into a node is added
	// while that node is being built, so a node's incoming edges are one
	// contiguous run; predEnd[seq] is the index one past node seq's run,
	// and first is the start of the current node's.
	edges   []Edge
	predEnd []int
	first   int

	// Register tables, indexed by register number: sized for the
	// architectural registers and grown on demand for virtual ones.
	lastDef  []*Node
	lastUses [][]*Node
	regVer   []int

	stores, loads       []*Node
	storeRefs, loadRefs []memRef
	uses, defs          []isa.Reg
}

// reg grows the register tables to hold r.
func (b *Builder) reg(r isa.Reg) int {
	i := int(r)
	for i >= len(b.lastDef) {
		b.lastDef = append(b.lastDef, nil)
		b.lastUses = append(b.lastUses, nil)
		b.regVer = append(b.regVer, 0)
	}
	return i
}

// reset empties the working tables for a new graph.
func (b *Builder) reset(total int) {
	if b.lastDef == nil {
		b.lastDef = make([]*Node, isa.NumArchRegs)
		b.lastUses = make([][]*Node, isa.NumArchRegs)
		b.regVer = make([]int, isa.NumArchRegs)
	}
	clear(b.lastDef)
	for i := range b.lastUses {
		b.lastUses[i] = b.lastUses[i][:0]
	}
	clear(b.regVer)
	b.edges = b.edges[:0]
	b.predEnd = slices.Grow(b.predEnd[:0], total)[:total]
	b.stores, b.loads = b.stores[:0], b.loads[:0]
	b.storeRefs, b.loadRefs = b.storeRefs[:0], b.loadRefs[:0]
}

// addEdge links from → to, the node being built, with the given kind and
// latency. An edge with the same ends and kind is merged, keeping the
// larger latency.
func (b *Builder) addEdge(from, to *Node, kind DepKind, latency int) {
	for i := b.first; i < len(b.edges); i++ {
		if e := &b.edges[i]; e.From == from && e.Kind == kind {
			if latency > e.Latency {
				e.Latency = latency
			}
			return
		}
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Kind: kind, Latency: latency})
}

// Build constructs the dependence graph for the trace with a fresh
// Builder.
func Build(trace []*prog.Block, opts Options) *Graph {
	return new(Builder).Build(trace, opts)
}

// Build constructs the dependence graph for the trace. The graph shares
// nothing with the Builder.
func (b *Builder) Build(trace []*prog.Block, opts Options) *Graph {
	total := 0
	for _, blk := range trace {
		total += len(blk.Insts)
	}
	b.reset(total)
	nodes := make([]Node, total)
	g := &Graph{Nodes: make([]*Node, total), ByBlock: make([][]*Node, len(trace))}

	var lastOut *Node
	var lastBarrier *Node // JAL: everything is ordered around it

	seq := 0
	for bi, blk := range trace {
		blockStart := seq
		for ii := range blk.Insts {
			in := blk.Insts[ii]
			n := &nodes[seq]
			*n = Node{
				Inst:     in,
				Block:    blk,
				BlockIdx: bi,
				InstIdx:  ii,
				Seq:      seq,
				IsTerm:   ii == len(blk.Insts)-1 && isa.IsControl(in.Op),
			}
			g.Nodes[seq] = n
			b.first = len(b.edges)

			// Barrier ordering: nothing moves across a call.
			if lastBarrier != nil {
				b.addEdge(lastBarrier, n, DepOrder, 1)
			}

			// Register dependences. Calls implicitly read the argument
			// registers and the stack pointer and define the linkage
			// registers (the Uses/Defs accessors list only explicit
			// operands).
			b.uses = n.Inst.Uses(b.uses[:0])
			if in.Op == isa.JAL {
				b.uses = append(b.uses, isa.A0, isa.A1, isa.A2, isa.A3, isa.SP)
			}
			for _, r := range b.uses {
				if r == isa.R0 {
					continue
				}
				ri := b.reg(r)
				if d := b.lastDef[ri]; d != nil {
					b.addEdge(d, n, DepTrue, isa.Latency(d.Inst.Op))
				}
				b.lastUses[ri] = append(b.lastUses[ri], n)
			}
			b.defs = n.Inst.Defs(b.defs[:0])
			if in.Op == isa.JAL {
				b.defs = append(b.defs, isa.RV)
			}
			for _, r := range b.defs {
				if r == isa.R0 {
					continue
				}
				ri := b.reg(r)
				if d := b.lastDef[ri]; d != nil {
					b.addEdge(d, n, DepOutput, 1)
				}
				for _, u := range b.lastUses[ri] {
					if u != n {
						b.addEdge(u, n, DepAnti, 0)
					}
				}
				b.lastDef[ri] = n
				b.lastUses[ri] = b.lastUses[ri][:0]
				b.regVer[ri]++
			}

			// Memory dependences.
			if isa.IsMem(in.Op) {
				size, _ := memSize(in.Op)
				ref := memRef{base: in.Rs, baseVer: b.regVer[b.reg(in.Rs)], off: in.Imm, size: size}
				if opts.NoDisambiguation {
					ref = memRef{base: -1, baseVer: -1} // always overlaps
				}
				if isa.IsLoad(in.Op) {
					for i, s := range b.stores {
						if ref.overlaps(b.storeRefs[i]) || opts.NoDisambiguation {
							b.addEdge(s, n, DepMem, 1)
						}
					}
					b.loads = append(b.loads, n)
					b.loadRefs = append(b.loadRefs, ref)
				} else {
					for i, s := range b.stores {
						if ref.overlaps(b.storeRefs[i]) || opts.NoDisambiguation {
							b.addEdge(s, n, DepMem, 1)
						}
					}
					for i, l := range b.loads {
						if ref.overlaps(b.loadRefs[i]) || opts.NoDisambiguation {
							b.addEdge(l, n, DepMem, 1)
						}
					}
					b.stores = append(b.stores, n)
					b.storeRefs = append(b.storeRefs, ref)
				}
			}

			// Observable output stream stays ordered.
			if in.Op == isa.OUT {
				if lastOut != nil {
					b.addEdge(lastOut, n, DepOrder, 1)
				}
				lastOut = n
			}

			// Calls and returns barrier everything that follows; they also
			// depend on all prior memory and output activity.
			if in.Op == isa.JAL || in.Op == isa.JR || in.Op == isa.HALT {
				for _, s := range b.stores {
					b.addEdge(s, n, DepOrder, 1)
				}
				for _, l := range b.loads {
					b.addEdge(l, n, DepOrder, 1)
				}
				if lastOut != nil && lastOut != n {
					b.addEdge(lastOut, n, DepOrder, 1)
				}
				lastBarrier = n
				// Calls clobber memory: later loads/stores must not move
				// above them; reset tracking so subsequent memory ops
				// depend on the barrier (via the lastBarrier edge).
				b.stores, b.storeRefs = b.stores[:0], b.storeRefs[:0]
				b.loads, b.loadRefs = b.loads[:0], b.loadRefs[:0]
			}
			b.predEnd[seq] = len(b.edges)
			seq++
		}
		g.ByBlock[bi] = g.Nodes[blockStart:seq:seq]
	}
	b.link(nodes)
	return g
}

// link copies the finished edges into the graph's own arena and points
// every node's Preds and Succs into it. Preds keep the order their edges
// were added in. Each producer's Succs are in the order of their
// consumers' Seq, then of the consumer's Preds: the order the edges were
// added to the producer.
func (b *Builder) link(nodes []Node) {
	m := len(b.edges)
	edges := make([]Edge, m)
	copy(edges, b.edges)
	ptrs := make([]*Edge, 2*m)
	preds, succs := ptrs[:m:m], ptrs[m:]
	lo := 0
	for seq, hi := range b.predEnd {
		for i := lo; i < hi; i++ {
			preds[i] = &edges[i]
		}
		nodes[seq].Preds = preds[lo:hi:hi]
		lo = hi
	}
	// Carve each producer's Succs out of the second half, sized by its
	// out-degree, then fill them in arena order.
	deg := b.predEnd
	clear(deg)
	for i := range edges {
		deg[edges[i].From.Seq]++
	}
	off := 0
	for seq, d := range deg {
		nodes[seq].Succs = succs[off : off : off+d]
		off += d
	}
	for i := range edges {
		e := &edges[i]
		e.From.Succs = append(e.From.Succs, e)
	}
}

func memSize(op isa.Op) (int32, bool) {
	switch op {
	case isa.LW, isa.SW:
		return 4, true
	case isa.LH, isa.LHU, isa.SH:
		return 2, true
	default:
		return 1, true
	}
}

// Terminator returns the terminator node of trace block bi, or nil.
func (g *Graph) Terminator(bi int) *Node {
	ns := g.ByBlock[bi]
	if len(ns) == 0 {
		return nil
	}
	if last := ns[len(ns)-1]; last.IsTerm {
		return last
	}
	return nil
}
