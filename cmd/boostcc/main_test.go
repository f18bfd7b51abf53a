package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testAsm is a small program whose hot loop contains a profitable branch,
// so scheduling it exercises real code motion.
const testAsm = `; boostcc test program
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

func runCC(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func writeAsm(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(path, []byte(testAsm), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                   // neither -workload nor -asm
		{"-workload", "grep", "-asm", "x.s"}, // both
		{"-no-such-flag"},
		{"-workload", "grep", "stray"},
	}
	for _, args := range cases {
		if code, _, _ := runCC(t, args...); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestDomainErrors(t *testing.T) {
	if code, _, stderr := runCC(t, "-workload", "grep", "-model", "bogus"); code != 1 {
		t.Errorf("bad model: code %d (stderr %q), want 1", code, stderr)
	}
	if code, _, stderr := runCC(t, "-asm", "/no/such/file.s"); code != 1 {
		t.Errorf("missing asm: code %d (stderr %q), want 1", code, stderr)
	}
	bad := filepath.Join(t.TempDir(), "bad.s")
	if err := os.WriteFile(bad, []byte("not assembly ???"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, stderr := runCC(t, "-asm", bad); code != 1 {
		t.Errorf("unparseable asm: code %d (stderr %q), want 1", code, stderr)
	}
}

func TestAsmCompile(t *testing.T) {
	path := writeAsm(t)
	code, stdout, stderr := runCC(t, "-asm", path, "-model", "MinBoost3",
		"-pass-stats", "-verify-each", "-src")
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{
		"== program IR ==",
		"== schedule for",
		"== pass stats",
		"parse", "regalloc", "reference-run", "profile",
		"trace-select", "ddg-build", "list-schedule", "recovery-emit",
		"motions", "analysis cache",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestPassStatsOffByDefault(t *testing.T) {
	path := writeAsm(t)
	code, stdout, stderr := runCC(t, "-asm", path)
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr)
	}
	if strings.Contains(stdout, "pass stats") {
		t.Error("pass stats printed without -pass-stats")
	}
}

func TestWorkloadCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("workload compile in -short mode")
	}
	code, stdout, stderr := runCC(t, "-workload", "grep", "-model", "Boost7", "-pass-stats", "-verify-each")
	if code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"== schedule for", "build", "regalloc", "reference-run", "schedule"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestEmitLoadRoundTrip: -emit records the schedule it prints in the
// artifact, and -load prints the same schedule from the artifact without
// scheduling; a model the artifact lacks is scheduled afresh.
func TestEmitLoadRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("workload compile in -short mode")
	}
	art := filepath.Join(t.TempDir(), "grep.bsta")
	code, emitted, stderr := runCC(t, "-workload", "grep", "-model", "Boost1", "-emit", art)
	if code != 0 {
		t.Fatalf("-emit: run = %d, stderr: %s", code, stderr)
	}
	code, loaded, stderr := runCC(t, "-load", art, "-model", "Boost1")
	if code != 0 {
		t.Fatalf("-load: run = %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(loaded, "(1 recorded schedules)") || !strings.Contains(loaded, "reusing recorded schedule") {
		t.Errorf("-load did not reuse the emitted schedule:\n%s", loaded)
	}
	schedule := func(out string) string { return out[strings.Index(out, "== schedule for"):] }
	if got, want := schedule(loaded), schedule(emitted); got != want {
		t.Errorf("loaded schedule differs from the emitted one:\n--- emitted ---\n%s\n--- loaded ---\n%s", want, got)
	}
	code, other, stderr := runCC(t, "-load", art, "-model", "NoBoost")
	if code != 0 {
		t.Fatalf("-load -model NoBoost: run = %d, stderr: %s", code, stderr)
	}
	if strings.Contains(other, "reusing recorded schedule") {
		t.Errorf("a model the artifact lacks reused a schedule:\n%s", other)
	}
}
