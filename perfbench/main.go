// Command perfbench is apenetsim's performance benchmark. It runs one
// workload as a closed loop for a host-time budget, checks every
// simulated output, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics of a separately profiled run) as the last line of
// its output, one JSON object. README.md in this directory describes the
// workloads and what every metric should move.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload p2p-2node --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"apenetsim/internal/core"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// workload is one benchmark input set. A pass is a fixed unit of its
// work; the timed phase runs passes back to back.
type workload interface {
	pass(in passInput) passStats
	// setupSample builds the simulated machines of one pass without
	// running them and returns the host time the builds took.
	setupSample() (time.Duration, error)
}

var workloadNames = []string{"p2p-2node", "halo-8cube", "a2a-get-2shard"}

// setupSamples is how many setup_s samples the timed phase takes before
// each pass.
const setupSamples = 8

// newWorkload builds a workload at full size, or at a tiny size for the
// package's smoke tests.
func newWorkload(name string, tiny bool, cells map[cellRef]string, refs map[string]*torusRef) (workload, error) {
	switch name {
	case "p2p-2node":
		sizes5 := []units.ByteSize{4 * units.KB, 16 * units.KB, 64 * units.KB, 256 * units.KB, 1 * units.MB, 4 * units.MB}
		sizes6 := units.PowersOfTwo(32, 4*units.MB)
		var quick6 []units.ByteSize // apebench -quick: every other size, plus the last
		for i, s := range sizes6 {
			if i%2 == 0 || i == len(sizes6)-1 {
				quick6 = append(quick6, s)
			}
		}
		if tiny {
			sizes5, quick6 = sizes5[:1], quick6[:2]
		}
		return &p2pWorkload{points: p2pPoints(sizes5, quick6), cells: cells}, nil
	case "halo-8cube":
		w := &torusWorkload{name: name, dims: torus.Dims{X: 8, Y: 8, Z: 8}, iters: 2,
			halos: 1, haloFace: 16 * units.KB, reduceBytes: 32 * units.KB}
		if tiny {
			w.dims = torus.Dims{X: 2, Y: 2, Z: 2}
		}
		w.ref = refs[w.refKey(tiny)]
		return w, nil
	case "a2a-get-2shard":
		w := &torusWorkload{name: name, dims: torus.Dims{X: 8, Y: 4, Z: 4}, shards: 2, iters: 2,
			a2aSizes:  []units.ByteSize{4 * units.KB, 16 * units.KB},
			pullFaces: []units.ByteSize{32 * units.KB, 128 * units.KB}}
		if tiny {
			w.dims = torus.Dims{X: 4, Y: 2, Z: 2}
			w.a2aSizes, w.pullFaces = []units.ByteSize{1 * units.KB, 2 * units.KB}, []units.ByteSize{4 * units.KB, 8 * units.KB}
		}
		w.ref = refs[w.refKey(tiny)]
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func (w *torusWorkload) refKey(tiny bool) string {
	if tiny {
		return w.name + "/tiny"
	}
	return w.name
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	tiny      bool
	out       string // directory for the traced run's profile and spans
	reference string // recorded torus reference
	artifact  string // committed apebench run holding the fig5-7 cells
}

func main() {
	var cfg runConfig
	var traceFlag int
	var update bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: p2p-2node, halo-8cube or a2a-get-2shard")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "host seconds the timed phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "1: per-layer metrics from a profiled run")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for the traced run's CPU profile and spans")
	flag.StringVar(&cfg.reference, "reference", "perfbench/reference.json", "recorded torus reference")
	flag.StringVar(&cfg.artifact, "artifact", "BENCH_2026-08-08.json", "committed apebench run with the fig5-7 cells")
	flag.BoolVar(&update, "update-reference", false, "rerun the torus reference passes and rewrite -reference")
	flag.Parse()
	cfg.trace = traceFlag == 1

	if update {
		if err := updateReference(cfg.reference); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// loadInputs reads the committed fig5-7 cells and the torus reference.
func loadInputs(cfg runConfig) (map[cellRef]string, map[string]*torusRef, error) {
	var art struct {
		Results []struct {
			ID     string `json:"id"`
			Report struct {
				Header []string   `json:"header"`
				Rows   [][]string `json:"rows"`
			} `json:"report"`
		} `json:"results"`
	}
	if err := readJSON(cfg.artifact, &art); err != nil {
		return nil, nil, err
	}
	cells := map[cellRef]string{}
	for _, r := range art.Results {
		if r.ID != "fig5" && r.ID != "fig6" && r.ID != "fig7" {
			continue
		}
		for _, row := range r.Report.Rows {
			for i := 1; i < len(row) && i < len(r.Report.Header); i++ {
				cells[cellRef{r.ID, row[0], r.Report.Header[i]}] = row[i]
			}
		}
	}
	refs := map[string]*torusRef{}
	if err := readJSON(cfg.reference, &refs); err != nil {
		return nil, nil, err
	}
	return cells, refs, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// hostStamp identifies the machine and build a result was taken on; wall
// times compare only between runs with the same stamp.
func hostStamp() map[string]any {
	h := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"vcs":        "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["vcs"] = s.Value
			case "vcs.modified":
				h["vcs_modified"] = s.Value
			}
		}
	}
	return h
}

// phase runs passes back to back for about budget host seconds, starting
// at pass index first. It runs at least one pass, and starts another only
// while the phase is expected to overrun the budget by less than half a
// pass, so a run's length stays close to its budget on a slow host too.
// When setups is not nil, it takes setupSamples setup samples before each
// pass and appends them there, so that set-up time, like pass time, is
// sampled across the whole run.
func phase(wl workload, seed int64, first int, budget float64, sp *spans, setups *[]float64) ([]passStats, error) {
	var out []passStats
	start := time.Now()
	for i := first; ; i++ {
		if n := len(out); n > 0 {
			el := time.Since(start).Seconds()
			if el+el/float64(n)/2 > budget {
				break
			}
		}
		for j := 0; setups != nil && j < setupSamples; j++ {
			d, err := wl.setupSample()
			if err != nil {
				return nil, err
			}
			*setups = append(*setups, d.Seconds())
		}
		sp.begin("pass")
		out = append(out, wl.pass(passInput{seed: seed, index: i, spans: sp}))
		sp.end()
	}
	return out, nil
}

// tally accumulates attempted and failed ops and changed model cells.
type tally struct {
	attempted, failed, cells int
	notes                    []string
}

func (t *tally) add(ps ...passStats) {
	for _, p := range ps {
		t.attempted += p.attempted
		t.failed += p.failed
		t.cells += p.cellsChanged
		for _, n := range p.notes {
			if len(t.notes) < 16 {
				t.notes = append(t.notes, n)
			}
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.cells += o.cells
	t.notes = append(t.notes, o.notes...)
}

// ratio is a/b, or 0 when b is 0 (a failed pass measures nothing), so
// every metric stays a finite JSON number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func run(cfg runConfig, w io.Writer) (*result, error) {
	cells, refs, err := loadInputs(cfg)
	if err != nil {
		return nil, err
	}
	wl, err := newWorkload(cfg.workload, cfg.tiny, cells, refs)
	if err != nil {
		return nil, err
	}
	stamp, err := json.Marshal(hostStamp())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "host %s\n", stamp)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	var t tally
	var exact counts
	var builds []time.Duration
	var setups []float64
	tw, isTorus := wl.(*torusWorkload)
	if isTorus && cfg.trace {
		// The reference pass (seed 0, first pass) pins the exact counts
		// and is compared with the recorded model outputs.
		ref := wl.pass(passInput{seed: 0, index: 0})
		ref.cellsChanged = tw.cellsChanged(&ref)
		t.add(ref)
		exact = ref.counts
		builds = append(builds, ref.setup...)
	}

	metrics := map[string]metric{}
	set := func(name string, v float64, unit string) { metrics[name] = metric{v, unit} }
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	g0 := readGoStats()
	timed, err := phase(wl, cfg.seed, 1, budget, nil, &setups)
	if err != nil {
		return nil, err
	}
	gs := readGoStats().sub(g0)
	t.add(timed...)
	if !isTorus {
		exact = timed[0].counts
	}
	var walls, msgs, perStep, perPacket, iterMS []float64
	opWall, opCPU := map[int][]float64{}, map[int][]float64{}
	var steps float64
	for _, ps := range timed {
		walls = append(walls, ps.wall.Seconds())
		msgs = append(msgs, float64(ps.msgs))
		for _, op := range ps.ops {
			opWall[op.kind] = append(opWall[op.kind], op.wall.Seconds())
			opCPU[op.kind] = append(opCPU[op.kind], op.cpu.Seconds())
			if isTorus {
				iterMS = append(iterMS, float64(op.wall)/1e6)
			}
		}
		builds = append(builds, ps.setup...)
		steps += float64(ps.counts.steps)
		if ps.counts.steps > 0 {
			perStep = append(perStep, float64(ps.wall.Nanoseconds())/float64(ps.counts.steps))
		}
		if ps.counts.packets > 0 {
			perPacket = append(perPacket, float64(ps.wall.Nanoseconds())/float64(ps.counts.packets))
		}
	}
	if !cfg.trace {
		// A pass runs every op kind once. Its host time is taken op by
		// op: each kind's median over the run's passes, summed. A burst
		// of load on a shared host then spoils a few op samples instead
		// of a whole pass.
		wall := sumOfMedians(opWall)
		set("wall_s", wall, "s")
		set("setup_s", median(setups), "s")
		set("cpu_s", sumOfMedians(opCPU), "s")
		set("msgs_per_s", ratio(median(msgs), wall), "1/s")
		set("max_rss_mb", maxRSSMB(), "MB")
	} else {
		tt, err := traced(cfg, wl, tw, walls, set)
		if err != nil {
			return nil, err
		}
		t.merge(tt)
		set("sim.steps", float64(exact.steps), "count")
		set("sim.ns_per_step", median(perStep), "ns")
		set("sim.peak_pending", float64(exact.peakPending), "count")
		set("group.rounds", float64(exact.rounds), "count")
		set("group.busy_frac", ratio(float64(exact.busyRounds), float64(exact.rounds*exact.shards)), "frac")
		set("group.steps_per_round", ratio(float64(exact.steps), float64(exact.rounds)), "count")
		set("core.packets", float64(exact.packets), "count")
		set("core.ns_per_packet", median(perPacket), "ns")
		set("core.hops", float64(exact.hops), "count")
		set("core.get_requests", float64(exact.getRequests), "count")
		set("v2p.lookups", float64(exact.lookups), "count")
		set("coll.iter_ms_p50", median(iterMS), "ms")
		set("coll.msgs", float64(exact.collMsgs), "count")
		set("cluster.build_ms", median(durationsMS(builds)), "ms")
		passes := float64(len(timed))
		set("go.alloc_mb", gs.allocBytes/passes/1e6, "MB")
		set("go.allocs_per_step", ratio(gs.allocObjects, steps), "count")
		set("go.gc_cycles", gs.gcCycles/passes, "count")
		set("go.gc_cpu_frac", ratio(gs.gcCPU, gs.totalCPU), "frac")
		set("model.cells_changed", float64(t.cells), "count")
		set("fail_frac", ratio(float64(t.failed), float64(t.attempted)), "frac")
	}

	for i, ps := range timed {
		fmt.Fprintf(w, "pass %d wall %.4fs cpu %.4fs setup %.6fs\n", i+1, ps.wall.Seconds(), ps.cpu.Seconds(), sumDurations(ps.setup).Seconds())
	}
	fmt.Fprintf(w, "passes %d  ops attempted %d failed %d  model cells changed %d\n",
		len(timed), t.attempted, t.failed, t.cells)
	for _, n := range t.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-22s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// traced runs the second half of a traced run: passes under a CPU
// profile with spans, the other shard count of a torus world, and the
// layer microbenchmarks. untracedWalls are the pass walls of the first,
// untraced half. It returns the ops it ran.
func traced(cfg runConfig, wl workload, tw *torusWorkload, untracedWalls []float64, set func(string, float64, string)) (tally, error) {
	var t tally
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return t, err
	}
	profPath := filepath.Join(cfg.out, "perfbench-"+cfg.workload+".pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return t, err
	}
	sp := newSpans()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return t, err
	}
	sp.begin("traced")
	passes, err := phase(wl, cfg.seed, 1000, cfg.seconds/2, sp, nil)
	sp.end()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return t, err
	}
	t.add(passes...)
	var walls []float64
	for _, ps := range passes {
		walls = append(walls, ps.wall.Seconds())
	}
	set("trace.overhead_frac", ratio(median(walls), median(untracedWalls))-1, "frac")
	shares, err := foldProfile(profPath)
	if err != nil {
		return t, err
	}
	for _, c := range cpuClasses {
		set("cpu."+c, shares[c], "frac")
	}
	if err := writeSpans(filepath.Join(cfg.out, "perfbench-"+cfg.workload+"-spans.json"), sp); err != nil {
		return t, err
	}

	// group.speedup: the torus world's pass wall on the serial engine
	// over its wall on two shards; the workload's own shard count comes
	// from the untraced half.
	speedup := 0.0
	if tw != nil {
		other := 2
		if tw.shards > 1 {
			other = 1
		}
		alt := tw.pass(passInput{seed: cfg.seed, index: 1, shards: other})
		t.add(alt)
		if other == 1 {
			speedup = ratio(alt.wall.Seconds(), median(untracedWalls))
		} else {
			speedup = ratio(median(untracedWalls), alt.wall.Seconds())
		}
	}
	set("group.speedup", speedup, "x")

	step := microEngineStep()
	set("sim.step_ns", step.ns, "ns")
	set("sim.step_allocs", step.allocs, "allocs")
	sw := microProcSwitch()
	set("sim.proc_switch_ns", sw.ns, "ns")
	set("sim.proc_switch_allocs", sw.allocs, "allocs")
	round := microGroupRound()
	set("group.round_ns", round.ns, "ns")
	set("group.round_allocs", round.allocs, "allocs")
	tail, insert := microReserveTail(), microReserveInsert()
	set("pcie.reserve_tail_ns", tail.ns, "ns")
	set("pcie.reserve_insert_ns", insert.ns, "ns")
	set("pcie.reserve_allocs", tail.allocs, "allocs")
	host, gpuPut := microPut(core.HostMem), microPut(core.GPUMem)
	set("core.put_host_ns", host.ns, "ns")
	set("core.put_gpu_ns", gpuPut.ns, "ns")
	set("core.put_allocs", host.allocs, "allocs")
	set("core.ns_per_hop", microHop(), "ns")
	walk, tlb := microTranslate()
	set("v2p.translate_ns", walk.ns, "ns")
	set("v2p.tlb_translate_ns", tlb.ns, "ns")
	return t, nil
}

// writeSpans writes the traced run's spans, with their per-name total and
// self times, as JSON.
func writeSpans(path string, sp *spans) error {
	type total struct {
		TotalS float64 `json:"total_s"`
		SelfS  float64 `json:"self_s"`
	}
	totals := map[string]total{}
	for name, t := range sp.selfTimes() {
		totals[name] = total{t[0].Seconds(), t[1].Seconds()}
	}
	b, err := json.MarshalIndent(map[string]any{"host": hostStamp(), "totals": totals, "spans": sp.list}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// updateReference reruns the reference pass of each torus workload, at
// full and tiny size, and records its model outputs.
func updateReference(path string) error {
	refs := map[string]*torusRef{}
	for _, name := range workloadNames[1:] {
		for _, tiny := range []bool{false, true} {
			wl, err := newWorkload(name, tiny, nil, nil)
			if err != nil {
				return err
			}
			tw := wl.(*torusWorkload)
			ps := tw.pass(passInput{seed: 0, index: 0})
			if ps.failed > 0 {
				return fmt.Errorf("%s reference pass failed: %v", name, ps.notes)
			}
			refs[tw.refKey(tiny)] = &torusRef{MakespanPS: ps.makespans, Steps: ps.counts.steps}
		}
	}
	b, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
