package core

import (
	"math/rand"
	"testing"

	"boosting/internal/dataflow"
	"boosting/internal/ddg"
	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/prog"
	"boosting/internal/workloads"
)

// predScanReady is ready's definition: every pred edge's producer is
// placed, and its latency is satisfied at abs.
func predScanReady(st *traceState, n *ddg.Node, abs int) bool {
	for _, e := range n.Preds {
		p := st.placementOf(e.From)
		if p == nil || p.abs+e.Latency > abs {
			return false
		}
	}
	return true
}

// programTraces returns the traces the scheduler would select in pr,
// region by region, without scheduling them.
func programTraces(pr *prog.Program) [][]*prog.Block {
	var traces [][]*prog.Block
	for _, p := range pr.ProcList() {
		s := &scheduler{
			pr:        pr,
			p:         p,
			model:     machine.Boost7(),
			opts:      Options{MaxTraceBlocks: 32},
			am:        dataflow.NewManager(p),
			scheduled: map[int]bool{},
		}
		for _, reg := range s.am.Regions() {
			for {
				trace := s.selectTrace(reg)
				if trace == nil {
					break
				}
				traces = append(traces, trace)
				for _, b := range trace {
					s.scheduled[b.ID] = true
				}
			}
		}
	}
	return traces
}

// checkReadyInvariant places g's nodes through mark in a random
// topological order at nondecreasing random cycles. Before and after each
// placement, ready must agree with the pred scan for every unplaced node
// and every cycle in [0, abs+8].
func checkReadyInvariant(t *testing.T, name string, trace []*prog.Block, g *ddg.Graph, rng *rand.Rand) {
	t.Helper()
	st := newTraceState(trace, g, 1)
	unplacedPreds := make([]int, len(g.Nodes))
	var avail []*ddg.Node
	for _, n := range g.Nodes {
		unplacedPreds[n.Seq] = len(n.Preds)
		if len(n.Preds) == 0 {
			avail = append(avail, n)
		}
	}
	abs := 0
	check := func() bool {
		for _, n := range g.Nodes {
			if st.isPlaced(n) {
				continue
			}
			for a := 0; a <= abs+8; a++ {
				if got, want := st.ready(n, a), predScanReady(st, n, a); got != want {
					t.Errorf("%s: node %v at cycle %d: ready = %v, pred scan = %v", name, n, a, got, want)
					return false
				}
			}
		}
		return true
	}
	if !check() {
		return
	}
	for placed := 0; placed < len(g.Nodes); placed++ {
		if len(avail) == 0 {
			t.Fatalf("%s: no placeable node after %d of %d (dependence cycle?)", name, placed, len(g.Nodes))
		}
		k := rng.Intn(len(avail))
		n := avail[k]
		avail = append(avail[:k], avail[k+1:]...)
		abs += rng.Intn(3)
		st.mark(n, placement{blockIdx: n.BlockIdx, cycle: abs, abs: abs, level: rng.Intn(2)})
		for _, e := range n.Succs {
			if unplacedPreds[e.To.Seq]--; unplacedPreds[e.To.Seq] == 0 {
				avail = append(avail, e.To)
			}
		}
		if !check() {
			return
		}
	}
}

// TestReadyMatchesPredScan: the incremental readiness that mark keeps
// (pending pred edges and the latest latency bound) gives the same answer
// as scanning the node's preds, for every unplaced node and cycle, on
// real traces of the workloads and of generated programs.
func TestReadyMatchesPredScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	// A producer that is both a true and an output predecessor of one
	// consumer (the load, latency 2 and 1), and a zero-latency anti edge
	// (the add reads v1 before the addi redefines it).
	_, st := parseTrace(t, `
.word 7
.proc main
entry:
	li v3, 0x10000
	lw v1, 0(v3)
	add v2, v1, v1
	addi v1, v1, 1
	halt
`, machine.Boost7(), 0)
	load, add, addi := nodeAt(t, st, 0, 1), nodeAt(t, st, 0, 2), nodeAt(t, st, 0, 3)
	kinds := map[ddg.DepKind]int{}
	for _, e := range addi.Preds {
		switch {
		case e.From == load:
			kinds[e.Kind] = e.Latency
		case e.From == add && e.Kind == ddg.DepAnti && e.Latency == 0:
			kinds[ddg.DepAnti] = 0
		}
	}
	if lat, ok := kinds[ddg.DepTrue]; !ok || lat != isa.Latency(isa.LW) {
		t.Fatalf("no true edge load→addi with the load latency: %v", addi.Preds)
	}
	if _, ok := kinds[ddg.DepOutput]; !ok {
		t.Fatalf("no output edge load→addi: %v", addi.Preds)
	}
	if _, ok := kinds[ddg.DepAnti]; !ok {
		t.Fatalf("no zero-latency anti edge add→addi: %v", addi.Preds)
	}
	for i := 0; i < 20; i++ {
		checkReadyInvariant(t, "hand", st.trace, st.g, rng)
	}

	var programs []*prog.Program
	names := []string{"grep", "eqntott", "espresso"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, benchMaster(t, w))
	}
	for j := 0; j < 16; j++ {
		programs = append(programs, asmPoolProgram(t, j))
	}
	traces, nodes := 0, 0
	for _, pr := range programs {
		for _, trace := range programTraces(prog.Clone(pr)) {
			for _, nd := range []bool{false, true} {
				g := ddg.Build(trace, ddg.Options{NoDisambiguation: nd})
				checkReadyInvariant(t, trace[0].Label, trace, g, rng)
				traces++
				nodes += len(g.Nodes)
			}
		}
	}
	t.Logf("checked %d traces, %d nodes", traces, nodes)
	if traces < 50 {
		t.Errorf("checked only %d traces", traces)
	}
}
