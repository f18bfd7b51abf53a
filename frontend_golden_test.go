// Front-end golden: every program the assembly parser and the register
// allocator produce for the schedule golden's 128 generated programs and
// for the seven workloads is pinned by a sha256 digest in
// testdata/frontend.golden. A digest covers the formatted text, every
// instruction's ID and fields, every block's ID, label, successors and
// predecessors in order, the data image, the BSS size and the program's
// ID and register counters; an allocated program's digest also covers
// the allocator's per-procedure Stats. Each program is allocated a second
// time from a separate parse (or build) and must digest the same, so a
// nondeterministic choice shows up even when the golden happens to match.
// Regenerate after an intentional front-end change with
//
//	go test -run TestFrontEndGolden -update .
package boosting_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/testgen"
	"boosting/internal/workloads"
)

const frontEndGoldenPath = "testdata/frontend.golden"

// programDigest hashes everything a later stage can observe of pr, plus
// the allocator's stats when st is non-nil.
func programDigest(pr *prog.Program, st map[string]*regalloc.Stats) string {
	h := sha256.New()
	h.Write([]byte(prog.FormatProgram(pr)))
	for _, p := range pr.ProcList() {
		fmt.Fprintf(h, "proc %s entry %d\n", p.Name, p.Entry.ID)
		for _, b := range p.Blocks {
			fmt.Fprintf(h, "block %d %q rec=%v count=%d/%d succs", b.ID, b.Label, b.Recovery, b.Count, b.TakenCount)
			writeBlockIDs(h, b.Succs)
			h.Write([]byte(" preds"))
			writeBlockIDs(h, b.Preds)
			h.Write([]byte("\n"))
			for i := range b.Insts {
				fmt.Fprintf(h, "%+v\n", b.Insts[i])
			}
		}
		if st != nil {
			s := st[p.Name]
			fmt.Fprintf(h, "stats %d %d %d\n", s.Assigned, s.Spilled, s.SpillBytes)
		}
	}
	next, nv := pr.Counters()
	fmt.Fprintf(h, "data %x bss %d counters %d %d\n", pr.Data, pr.BSS, next, nv)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func writeBlockIDs(h hash.Hash, bs []*prog.Block) {
	for _, b := range bs {
		fmt.Fprintf(h, " %d", b.ID)
	}
}

// allocDigest allocates pr in place and digests the result.
func allocDigest(t *testing.T, key string, pr *prog.Program) string {
	t.Helper()
	st, err := regalloc.Allocate(pr)
	if err != nil {
		t.Fatalf("%s: allocate: %v", key, err)
	}
	return programDigest(pr, st)
}

// parseGolden parses asm or fails the test.
func parseGolden(t *testing.T, key, asm string) *prog.Program {
	t.Helper()
	pr, err := prog.Parse(asm)
	if err != nil {
		t.Fatalf("%s: parse: %v", key, err)
	}
	return pr
}

// frontEndGoldenLines computes every pinned digest as "key digest",
// checking on the way that a second parse and allocation of the same
// input digests the same.
func frontEndGoldenLines(t *testing.T) []string {
	var lines []string
	add := func(key, digest string) { lines = append(lines, key+" "+digest) }
	again := func(key, first, second string) {
		if first != second {
			t.Errorf("%s: a second run from a separate input digests differently", key)
		}
	}
	for j := 0; j < scheduleGoldenPool; j++ {
		key := fmt.Sprintf("asm/%03d", j)
		asm := prog.FormatProgram(testgen.Random(int64(1000+j), testgen.RandomShape(int64(j)+1)))
		pr := parseGolden(t, key, asm)
		parsed := programDigest(pr, nil)
		add(key+"/parse", parsed)
		alloc := allocDigest(t, key, pr)
		add(key+"/alloc", alloc)
		pr2 := parseGolden(t, key, asm)
		again(key+"/parse", parsed, programDigest(pr2, nil))
		again(key+"/alloc", alloc, allocDigest(t, key, pr2))
	}
	for _, w := range workloads.All() {
		for _, in := range []struct {
			name  string
			build func() *prog.Program
		}{{"train", w.BuildTrain}, {"test", w.BuildTest}} {
			key := fmt.Sprintf("workload/%s/%s", w.Name, in.name)
			asm := prog.FormatProgram(in.build())
			parsed := programDigest(parseGolden(t, key, asm), nil)
			add(key+"/parse", parsed)
			again(key+"/parse", parsed, programDigest(parseGolden(t, key, asm), nil))
			alloc := allocDigest(t, key, in.build())
			add(key+"/alloc", alloc)
			again(key+"/alloc", alloc, allocDigest(t, key, in.build()))
		}
	}
	return lines
}

// TestFrontEndGolden pins every parsed and allocated program against
// testdata/frontend.golden.
func TestFrontEndGolden(t *testing.T) {
	got := frontEndGoldenLines(t)
	if *updateGolden {
		body := strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(filepath.FromSlash(frontEndGoldenPath), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d programs)", frontEndGoldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(filepath.FromSlash(frontEndGoldenPath))
	if err != nil {
		t.Fatalf("missing %s (generate with `go test -run TestFrontEndGolden -update .`): %v", frontEndGoldenPath, err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		key, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", frontEndGoldenPath, sc.Text())
		}
		want[key] = digest
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d programs, the test computes %d; re-run with -update if intended", frontEndGoldenPath, len(want), len(got))
	}
	drifted := 0
	for _, line := range got {
		key, digest, _ := strings.Cut(line, " ")
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden digest", key)
		} else if w != digest {
			drifted++
			if drifted <= 20 {
				t.Errorf("%s: program drifted from golden (re-run with -update if intended)", key)
			}
		}
	}
	if drifted > 20 {
		t.Errorf("%d programs drifted in all", drifted)
	}
}
