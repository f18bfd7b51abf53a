// Schedule golden: every schedule the trace scheduler produces for the
// seven workloads and for 128 generated assembly programs is pinned by a
// sha256 digest in testdata/schedules.golden. A digest covers the
// scheduled program's artifact encoding (rewritten blocks, schedule
// slots with their boosting labels, recovery code), its listing and the
// scheduler's Stats counters with the wall-time fields zeroed, so any
// change to a placement, a tie-break or a counter shows up here even when
// the simulated cycles happen not to move. Regenerate after an
// intentional scheduling change with
//
//	go test -run TestScheduleGolden -update .
package boosting_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"boosting"
	"boosting/internal/artifact"
	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/prog"
	"boosting/internal/testgen"
	"boosting/internal/workloads"
)

const scheduleGoldenPath = "testdata/schedules.golden"

// scheduleGoldenPool is the number of generated programs pinned, drawn
// like the service benchmark's pool: slot j has testgen.RandomShape(j+1).
const scheduleGoldenPool = 128

// scheduleGoldenOptions are the scheduler configurations pinned for the
// workloads: the paper's full scheduler and one row per ablation knob.
var scheduleGoldenOptions = []struct {
	name string
	opts core.Options
}{
	{"baseline", core.Options{}},
	{"no-equiv", core.Options{DisableEquivalence: true}},
	{"no-disamb", core.Options{NoDisambiguation: true}},
	{"trace2", core.Options{MaxTraceBlocks: 2}},
	{"local", core.Options{LocalOnly: true}},
	{"no-boosted-loads", core.Options{NoBoostedLoads: true}},
}

// scheduleDigest schedules a clone of master and digests the result.
func scheduleDigest(t *testing.T, master *prog.Program, model *machine.Model, opts core.Options) string {
	t.Helper()
	sp, stats, err := core.ScheduleWithStats(prog.Clone(master), model, opts)
	if err != nil {
		t.Fatalf("%s: schedule: %v", model.Name, err)
	}
	enc, err := artifact.EncodeSchedProgram(sp)
	if err != nil {
		t.Fatalf("%s: encode: %v", model.Name, err)
	}
	stats.TraceSelectSeconds, stats.DDGBuildSeconds = 0, 0
	stats.ListScheduleSeconds, stats.RecoveryEmitSeconds = 0, 0
	js, err := json.Marshal(stats)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(enc)
	h.Write([]byte(sp.Format()))
	h.Write(js)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// scheduleGoldenLines computes every pinned digest as "key digest".
func scheduleGoldenLines(t *testing.T) []string {
	var lines []string
	for _, w := range workloads.All() {
		master := compileGolden(t, w.Name)
		for _, m := range goldenModels() {
			for _, o := range scheduleGoldenOptions {
				key := fmt.Sprintf("workload/%s/%s/%s", w.Name, m.name, o.name)
				lines = append(lines, key+" "+scheduleDigest(t, master, m.model, o.opts))
			}
		}
	}
	p := boosting.NewPipeline()
	for j := 0; j < scheduleGoldenPool; j++ {
		asm := prog.FormatProgram(testgen.Random(int64(1000+j), testgen.RandomShape(int64(j)+1)))
		c, err := p.CompileAsm(context.Background(), asm, 20_000_000)
		if err != nil {
			t.Fatalf("asm %d: %v", j, err)
		}
		master := c.Program()
		for _, m := range goldenModels() {
			for _, o := range scheduleGoldenOptions {
				if o.name != "baseline" && o.name != "local" {
					continue
				}
				key := fmt.Sprintf("asm/%03d/%s/%s", j, m.name, o.name)
				lines = append(lines, key+" "+scheduleDigest(t, master, m.model, o.opts))
			}
		}
	}
	return lines
}

// TestScheduleGolden pins every schedule digest against
// testdata/schedules.golden.
func TestScheduleGolden(t *testing.T) {
	got := scheduleGoldenLines(t)
	if *updateGolden {
		body := strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(filepath.FromSlash(scheduleGoldenPath), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d schedules)", scheduleGoldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(filepath.FromSlash(scheduleGoldenPath))
	if err != nil {
		t.Fatalf("missing %s (generate with `go test -run TestScheduleGolden -update .`): %v", scheduleGoldenPath, err)
	}
	want := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		key, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", scheduleGoldenPath, sc.Text())
		}
		want[key] = digest
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d schedules, the test computes %d; re-run with -update if intended", scheduleGoldenPath, len(want), len(got))
	}
	drifted := 0
	for _, line := range got {
		key, digest, _ := strings.Cut(line, " ")
		if w, ok := want[key]; !ok {
			t.Errorf("%s: no golden digest", key)
		} else if w != digest {
			drifted++
			if drifted <= 20 {
				t.Errorf("%s: schedule drifted from golden (re-run with -update if intended)", key)
			}
		}
	}
	if drifted > 20 {
		t.Errorf("%d schedules drifted in all", drifted)
	}
}
