package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-bogus"}},
		{"stray argument", []string{"grep"}},
		{"rename without dynamic", []string{"-rename"}},
		{"removed engine flag", []string{"-engine", "fast"}},
	}
	for _, tc := range cases {
		var out, errw bytes.Buffer
		if code := run(tc.args, &out, &errw); code != 2 {
			t.Errorf("%s: run(%v) = %d, want 2", tc.name, tc.args, code)
		}
		if errw.Len() == 0 {
			t.Errorf("%s: expected a usage message on stderr", tc.name)
		}
	}
}

func TestDomainErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "doom"},
		{"-model", "Pentium"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 1 {
			t.Errorf("run(%v) = %d, want 1 (stderr: %s)", args, code, errw.String())
		}
		if !strings.Contains(errw.String(), "boostsim:") {
			t.Errorf("run(%v): stderr missing prefixed error: %q", args, errw.String())
		}
	}
}

// TestProfileFlags: -cpuprofile/-memprofile write non-empty pprof files
// on a successful run, and an uncreatable profile path fails up front
// with exit code 1 before any simulation work.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload simulation in -short mode")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errw bytes.Buffer
	code := run([]string{"-workload", "grep", "-model", "MinBoost3",
		"-cpuprofile", cpu, "-memprofile", mem}, &out, &errw)
	if code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, errw.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestProfilePathErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "no", "such", "dir", "cpu.pprof")
	var out, errw bytes.Buffer
	if code := run([]string{"-cpuprofile", bad}, &out, &errw); code != 1 {
		t.Errorf("bad -cpuprofile path: run = %d, want 1 (stderr: %s)", code, errw.String())
	}
	if !strings.Contains(errw.String(), "boostsim:") {
		t.Errorf("stderr missing prefixed error: %q", errw.String())
	}
}

func TestSimulateReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload simulation in -short mode")
	}
	var out, errw bytes.Buffer
	if code := run([]string{"-workload", "grep", "-model", "MinBoost3"}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, errw.String())
	}
	for _, want := range []string{"workload     grep", "cycles", "speedup", "boosted", "prediction"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}
