package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// contract reads the metric names and units BENCHMARK.json promises.
func contract(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	var c struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func tinyConfig(t *testing.T, name string, trace bool) runConfig {
	return runConfig{workload: name, seed: 1, seconds: 0, trace: trace, tiny: true,
		out: t.TempDir(), reference: "reference.json", artifact: "../BENCH_2026-08-08.json"}
}

// TestSmokeEveryWorkload runs every workload at a tiny size, untraced and
// traced, and checks that each emits exactly the metrics BENCHMARK.json
// names, with their units, and that every output check passes.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := contract(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(t, name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m, got, unit)
				}
			}
			if trace && res.Metrics["model.cells_changed"].Value != 0 {
				t.Errorf("%s: %v model cells changed", name, res.Metrics["model.cells_changed"].Value)
			}
		}
	}
}

// TestCorruptedReferenceCounts checks that a reference which no longer
// matches the model shows up as changed cells.
func TestCorruptedReferenceCounts(t *testing.T) {
	cells, refs, err := loadInputs(tinyConfig(t, "", false))
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range workloadNames[1:] {
		wl, err := newWorkload(name, true, cells, refs)
		if err != nil {
			t.Fatal(err)
		}
		tw := wl.(*torusWorkload)
		ps := tw.pass(passInput{})
		if n := tw.cellsChanged(&ps); n != 0 {
			t.Fatalf("%s: %d cells changed against the recorded reference: %v", name, n, ps.notes)
		}
		bad := *tw.ref
		bad.MakespanPS = append([]int64(nil), bad.MakespanPS...)
		bad.MakespanPS[0]++
		bad.Steps++
		tw.ref = &bad
		if n := tw.cellsChanged(&ps); n != 2 {
			t.Errorf("%s: corrupted reference gives %d changed cells, want 2", name, n)
		}
	}

	wl, err := newWorkload("p2p-2node", true, cells, refs)
	if err != nil {
		t.Fatal(err)
	}
	pw := wl.(*p2pWorkload)
	if ps := pw.pass(passInput{}); ps.cellsChanged != 0 || ps.failed != 0 {
		t.Fatalf("p2p: %d cells changed, %d failed: %v", ps.cellsChanged, ps.failed, ps.notes)
	}
	bad := map[cellRef]string{}
	for k, v := range cells {
		bad[k] = v
	}
	bad[cellRef{"fig6", "32", "G-G"}] = "6" // also the fig7 P2P cell's simulation
	delete(bad, cellRef{"fig5", "4K", "v1"})
	pw.cells = bad
	if ps := pw.pass(passInput{}); ps.cellsChanged != 2 {
		t.Errorf("p2p: corrupted artifact gives %d changed cells, want 2: %v", ps.cellsChanged, ps.notes)
	}
}

// TestFoldTop checks the pprof -top parser and the bucket of each symbol
// kind.
func TestFoldTop(t *testing.T) {
	text := `File: perfbench
Type: cpu
Showing nodes accounting for 100ms, 100% of 100ms total
      flat  flat%   sum%        cum   cum%
      40ms 40.00% 40.00%       40ms 40.00%  apenetsim/internal/sim.eventLess (inline)
      20ms 20.00% 60.00%       20ms 20.00%  runtime.chanrecv
      10ms 10.00% 70.00%       10ms 10.00%  runtime.mallocgc
      10ms 10.00% 80.00%       10ms 10.00%  runtime.scanobject
      10ms 10.00% 90.00%       10ms 10.00%  apenetsim/internal/nios.(*CPU).run
      10ms 10.00%   100%       10ms 10.00%  fmt.Sprintf
`
	got, err := foldTop(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.4, "rt_sched": 0.2, "rt_malloc": 0.1, "rt_gc": 0.1, "core": 0.1, "other": 0.1}
	for _, c := range cpuClasses {
		if got[c] != want[c] {
			t.Errorf("cpu.%s = %v, want %v", c, got[c], want[c])
		}
	}
	if _, err := foldTop("no table here"); err == nil {
		t.Error("text without a pprof table folded without error")
	}
}

// TestPassRunsEveryOpKindOnce checks what wall_s and cpu_s rest on: every
// pass times each op kind exactly once, whatever order the seed gives.
func TestPassRunsEveryOpKindOnce(t *testing.T) {
	cells, refs, err := loadInputs(tinyConfig(t, "", false))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		wl, err := newWorkload(name, true, cells, refs)
		if err != nil {
			t.Fatal(err)
		}
		var kinds map[int]bool
		for seed := int64(1); seed <= 3; seed++ {
			ps := wl.pass(passInput{seed: seed, index: 1})
			got := map[int]bool{}
			for _, op := range ps.ops {
				if got[op.kind] {
					t.Errorf("%s seed %d: op kind %d timed twice", name, seed, op.kind)
				}
				got[op.kind] = true
			}
			if len(got) != ps.attempted {
				t.Errorf("%s seed %d: %d op kinds timed, %d ops attempted", name, seed, len(got), ps.attempted)
			}
			if kinds != nil && len(kinds) != len(got) {
				t.Errorf("%s seed %d: %d op kinds, another seed had %d", name, seed, len(got), len(kinds))
			}
			for k := range kinds {
				if !got[k] {
					t.Errorf("%s seed %d: op kind %d missing", name, seed, k)
				}
			}
			kinds = got
		}
	}
}
