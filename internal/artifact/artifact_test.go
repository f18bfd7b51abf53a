package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc64"
	"sort"
	"strings"
	"testing"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/passes"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
)

// testAsmSrc is a small self-contained program with data-dependent
// branches, loads and stores, so schedules carry boosted instructions,
// compensation code and recovery sites — every feature the codec must
// round-trip.
const testAsmSrc = `; artifact codec test program
.word 3
.word -1
.word 4
.word -1
.word 5
.word -9
.reserve 64

.proc main
entry:
	li v0, 0x10000
	li v1, 6
	li v2, 0
	li v3, 0
	;fallthrough -> loop
loop:
	add v4, v0, v3
	lw v5, 0(v4)
	bltz v5, neg, pos
pos:
	add v2, v2, v5
	j next
neg:
	sub v2, v2, v5
	sw v2, 24(v4)
	j next
next:
	addi v3, v3, 4
	addi v1, v1, -1
	bgtz v1, loop, done
done:
	out v2
	halt
`

// testProgram parses, register-allocates and profiles the test source.
func testProgram(t testing.TB) *prog.Program {
	t.Helper()
	pr, err := prog.Parse(testAsmSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := regalloc.Allocate(pr); err != nil {
		t.Fatalf("regalloc: %v", err)
	}
	if err := profile.Annotate(pr); err != nil {
		t.Fatalf("profile: %v", err)
	}
	return pr
}

// testSched schedules a clone of pr (scheduling rewrites the CFG).
func testSched(t testing.TB, pr *prog.Program, m *machine.Model, o core.Options) *machine.SchedProgram {
	t.Helper()
	sp, err := core.Schedule(prog.Clone(pr), m, o)
	if err != nil {
		t.Fatalf("schedule %s: %v", m, err)
	}
	return sp
}

// testArtifact builds a fully populated artifact: master program,
// reference observables, and one recorded schedule.
func testArtifact(t testing.TB) *Artifact {
	t.Helper()
	pr := testProgram(t)
	a := &Artifact{
		Workload: "codec-test",
		Program:  pr,
		Ref: RefResult{
			Out:      []uint32{7, 0xFFFF_FFF9, 12},
			Insts:    421,
			Branches: 77,
			Taken:    41,
			MemHash:  0xDEAD_BEEF_F00D_CAFE,
		},
		Accuracy:     0.875,
		ScalarCycles: 513,
		Stats:        &passes.CompileStats{},
		Variants: []*Variant{{
			Key:   VariantKey(machine.MinBoost3(), core.Options{}),
			Sched: testSched(t, pr, machine.MinBoost3(), core.Options{}),
		}},
	}
	return a
}

// formatSched renders a schedule (including recovery code) the way the
// boostcc driver prints it, giving a byte-comparable listing.
func formatSched(sp *machine.SchedProgram) string {
	var b strings.Builder
	for _, name := range sp.Prog.Order {
		proc := sp.Procs[name]
		b.WriteString(proc.Format())
		ids := make([]int, 0, len(proc.Recovery))
		for id := range proc.Recovery {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, ".recovery %d:\n", id)
			for _, inst := range proc.Recovery[id] {
				fmt.Fprintf(&b, "\t%s\n", inst.String())
			}
		}
	}
	return b.String()
}

func TestArtifactRoundTrip(t *testing.T) {
	a := testArtifact(t)
	data, err := a.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Workload != a.Workload || got.InfiniteRegisters != a.InfiniteRegisters {
		t.Errorf("identity mismatch: got %q/%v", got.Workload, got.InfiniteRegisters)
	}
	if fmt.Sprint(got.Ref) != fmt.Sprint(a.Ref) {
		t.Errorf("ref mismatch:\n got %v\nwant %v", got.Ref, a.Ref)
	}
	if got.Accuracy != a.Accuracy || got.ScalarCycles != a.ScalarCycles {
		t.Errorf("accuracy/scalar mismatch: %v/%d", got.Accuracy, got.ScalarCycles)
	}
	if want, have := prog.FormatProgram(a.Program), prog.FormatProgram(got.Program); want != have {
		t.Errorf("program listing differs after round trip:\n%s\n-- vs --\n%s", have, want)
	}
	if len(got.Variants) != len(a.Variants) {
		t.Fatalf("got %d variants, want %d", len(got.Variants), len(a.Variants))
	}
	for i := range a.Variants {
		if got.Variants[i].Key != a.Variants[i].Key {
			t.Errorf("variant %d key = %q, want %q", i, got.Variants[i].Key, a.Variants[i].Key)
		}
		if want, have := formatSched(a.Variants[i].Sched), formatSched(got.Variants[i].Sched); want != have {
			t.Errorf("variant %d schedule differs after round trip", i)
		}
	}
	// The decoded artifact must re-encode byte-identically: the encoding
	// is canonical, so content-addressing is stable across processes.
	data2, err := got.Encode()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-encoding a decoded artifact changed the bytes")
	}
}

func TestSchedProgramRoundTrip(t *testing.T) {
	pr := testProgram(t)
	for _, m := range []*machine.Model{machine.Boost1(), machine.MinBoost3(), machine.Boost7()} {
		sp := testSched(t, pr, m, core.Options{})
		data, err := EncodeSchedProgram(sp)
		if err != nil {
			t.Fatalf("%s: encode: %v", m, err)
		}
		got, err := DecodeSchedProgram(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m, err)
		}
		if want, have := formatSched(sp), formatSched(got); want != have {
			t.Errorf("%s: schedule listing differs after round trip:\n%s\n-- vs --\n%s", m, have, want)
		}
		data2, err := EncodeSchedProgram(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", m, err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("%s: re-encoding changed the bytes", m)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	data, err := testArtifact(t).Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := Decode(data[:i]); err == nil {
			t.Fatalf("Decode accepted a %d/%d-byte truncation", i, len(data))
		}
	}
}

func TestDecodeBitFlip(t *testing.T) {
	data, err := testArtifact(t).Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for i := 0; i < len(data); i += 31 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// reseal recomputes the checksum trailer after a deliberate header edit,
// so decode failures are attributable to the edit, not the checksum.
func reseal(data []byte) {
	crc := crc64.Checksum(data[:len(data)-8], crcTable)
	for i := 0; i < 8; i++ {
		data[len(data)-8+i] = byte(crc >> (8 * i))
	}
}

func TestDecodeWrongVersion(t *testing.T) {
	data, err := testArtifact(t).Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	data[len(magic)]++ // the version uvarint sits right after the magic
	reseal(data)
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestDecodeWrongISA(t *testing.T) {
	data, err := testArtifact(t).Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	data[len(magic)+1] ^= 0xFF // first ISA-fingerprint byte
	reseal(data)
	if _, err := Decode(data); !errors.Is(err, ErrISA) {
		t.Fatalf("err = %v, want ErrISA", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("BSTA"),
		[]byte("not an artifact at all"),
		bytes.Repeat([]byte{0xA5}, 4096),
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: Decode accepted garbage", i)
		}
		if _, err := DecodeSchedProgram(c); err == nil {
			t.Errorf("case %d: DecodeSchedProgram accepted garbage", i)
		}
	}
}

func TestVariantKeys(t *testing.T) {
	keys := map[string]bool{}
	for _, m := range []*machine.Model{machine.Scalar(), machine.NoBoost(), machine.Squashing(),
		machine.Boost1(), machine.MinBoost3(), machine.Boost7(),
		machine.Wide4(machine.BoostConfig{MaxLevel: 3, StoreBuffer: true})} {
		for _, o := range []core.Options{{}, {LocalOnly: true}, {DisableEquivalence: true}} {
			k := VariantKey(m, o)
			if keys[k] {
				t.Errorf("duplicate variant key %q", k)
			}
			keys[k] = true
		}
	}
}

func TestFindVariant(t *testing.T) {
	pr := testProgram(t)
	sp := testSched(t, pr, machine.MinBoost3(), core.Options{})
	a := &Artifact{Workload: "w", Program: pr, Variants: []*Variant{
		{Key: VariantKey(machine.MinBoost3(), core.Options{LocalOnly: true}), Sched: sp},
		{Key: VariantKey(machine.MinBoost3(), core.Options{}), Sched: sp},
	}}
	if v := a.FindVariant(machine.MinBoost3(), core.Options{}); v != a.Variants[1] {
		t.Error("FindVariant did not return the variant with the matching options")
	}
	if v := a.FindVariant(machine.Boost7(), core.Options{}); v != nil {
		t.Error("FindVariant matched a model that was never added")
	}
}
