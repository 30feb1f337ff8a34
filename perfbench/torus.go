package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"apenetsim/internal/coll"
	"apenetsim/internal/core"
	"apenetsim/internal/sim"
	"apenetsim/internal/torus"
	"apenetsim/internal/units"
)

// vlen is the length of the value vector every collective message carries.
const vlen = 8

// torusWorkload runs iters collective iterations on a freshly built
// GPU-buffer world per pass. Each iteration is one op: it starts after
// the previous one ends on every rank (a world barrier), and it fails
// when any rank sees a wrong value, a missing message or a short GET, or
// never finishes it.
type torusWorkload struct {
	name   string
	dims   torus.Dims
	shards int
	iters  int

	// halo-8cube: halos face exchanges of haloFace bytes, then a
	// dimension-ordered allreduce of reduceBytes.
	halos       int
	haloFace    units.ByteSize
	reduceBytes units.ByteSize

	// a2a-get-2shard: an all-to-all PUT, then a pull halo (GET). Op kind
	// k is an all-to-all of a2aSizes[k] and a pull of pullFaces[k]; each
	// pass runs every kind once (iters of them), in a seeded order, so a
	// pass does the same work under every seed.
	a2aSizes  []units.ByteSize
	pullFaces []units.ByteSize

	ref *torusRef // committed reference for the seed-0 first pass
}

// torusRef is the recorded model output of a workload's reference pass
// (seed 0, pass 0): every iteration's simulated makespan and the pass's
// executed events.
type torusRef struct {
	MakespanPS []int64 `json:"makespan_ps"`
	Steps      uint64  `json:"steps"`
}

// torusInputs is one pass's generated inputs.
type torusInputs struct {
	vals  [][][]float64 // [iter][rank] value vector
	want  [][]float64   // [iter] element-wise sum over ranks
	kinds []int         // [iter] op kind
	sizes []units.ByteSize
	faces []units.ByteSize
}

func (w *torusWorkload) inputs(seed int64, index int) torusInputs {
	rng := rand.New(rand.NewSource(seed*7919 + int64(index)))
	n := w.dims.Nodes()
	in := torusInputs{vals: make([][][]float64, w.iters), want: make([][]float64, w.iters)}
	for it := range in.vals {
		in.vals[it] = make([][]float64, n)
		in.want[it] = make([]float64, vlen)
		for r := range in.vals[it] {
			v := make([]float64, vlen)
			for j := range v {
				// Small integers keep every float sum exact.
				v[j] = float64(rng.Intn(1024))
				in.want[it][j] += v[j]
			}
			in.vals[it][r] = v
		}
	}
	if len(w.a2aSizes) == 0 {
		// halo-8cube: every iteration does the same work; the kind is
		// the iteration's place in the pass, the first one running on a
		// fresh world.
		for it := 0; it < w.iters; it++ {
			in.kinds = append(in.kinds, it)
		}
		return in
	}
	in.kinds = rng.Perm(len(w.a2aSizes))
	for _, k := range in.kinds {
		in.sizes = append(in.sizes, w.a2aSizes[k])
		in.faces = append(in.faces, w.pullFaces[k])
	}
	return in
}

// faceDirs lists the directions in which the rank at c has a neighbor
// other than itself.
func faceDirs(d torus.Dims, c torus.Coord, self int) []torus.Dir {
	var out []torus.Dir
	for dir := torus.Dir(0); dir < torus.NumDirs; dir++ {
		if d.Rank(d.Neighbor(c, dir)) != self {
			out = append(out, dir)
		}
	}
	return out
}

func sameVals(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// iteration runs one op on rank r and reports whether every output it
// received was right.
func (w *torusWorkload) iteration(p *sim.Proc, r *coll.Rank, in *torusInputs, it int) bool {
	ok := true
	vals := in.vals[it]
	dirs := faceDirs(w.dims, r.Coord, r.ID)
	for h := 0; h < w.halos; h++ {
		got := r.Halo(p, w.haloFace, vals[r.ID])
		if len(got) != len(dirs) {
			ok = false
		}
		for _, dir := range dirs {
			peer := w.dims.Rank(w.dims.Neighbor(r.Coord, dir))
			m, present := got[dir]
			if !present || m.Src != peer || !sameVals(m.Vals, vals[peer]) {
				ok = false
			}
		}
	}
	if w.reduceBytes > 0 && !sameVals(r.AllReduceDims(p, w.reduceBytes, vals[r.ID]), in.want[it]) {
		ok = false
	}
	if len(in.sizes) > 0 {
		got := r.AllToAll(p, in.sizes[it], vals[r.ID])
		for src, m := range got {
			if src == r.ID {
				continue
			}
			if m.Src != src || !sameVals(m.Vals, vals[src]) {
				ok = false
			}
		}
	}
	if len(in.faces) > 0 {
		face := in.faces[it]
		got := r.HaloPull(p, face)
		if len(got) != len(dirs) {
			ok = false
		}
		for _, dir := range dirs {
			if c, present := got[dir]; !present || c.Err != "" || c.Bytes != face {
				ok = false
			}
		}
	}
	return ok
}

// rxBytes is the payload every card together must receive in one pass:
// halo faces, allreduce segments, all-to-all messages, GET requests of
// getReq bytes and pulled faces. More means a duplicate message, less a
// missing one.
func (w *torusWorkload) rxBytes(in *torusInputs, getReq units.ByteSize) (bytes int64, msgs int64) {
	n := int64(w.dims.Nodes())
	faces := int64(len(faceDirs(w.dims, torus.Coord{}, 0)))
	for it := 0; it < w.iters; it++ {
		bytes += n * faces * int64(w.halos) * int64(w.haloFace)
		msgs += n * faces * int64(w.halos)
		if w.reduceBytes > 0 {
			for _, k := range []int{w.dims.X, w.dims.Y, w.dims.Z} {
				if k < 2 {
					continue
				}
				seg := (int64(w.reduceBytes) + int64(k) - 1) / int64(k)
				bytes += n * int64(2*(k-1)) * seg
				msgs += n * int64(2*(k-1))
			}
		}
		if len(in.sizes) > 0 {
			bytes += n * (n - 1) * int64(in.sizes[it])
			msgs += n * (n - 1)
		}
		if len(in.faces) > 0 {
			bytes += n * faces * int64(in.faces[it]+getReq)
			msgs += n * faces
		}
	}
	return bytes, msgs
}

func (w *torusWorkload) pass(in passInput) (ps passStats) {
	inputs := w.inputs(in.seed, in.index)
	shards := w.shards
	if in.shards != 0 {
		shards = in.shards
	}
	ps.attempted = w.iters
	acct := &sim.Account{}
	cfg := core.DefaultConfig()
	cfg.Account = acct

	in.spans.begin("setup")
	world, eng, build, err := w.newWorld(shards, &cfg)
	ps.setup = []time.Duration{build}
	in.spans.end()
	if err != nil {
		ps.failed = w.iters
		ps.note("build: " + err.Error())
		return ps
	}
	defer eng.Shutdown()

	n := w.dims.Nodes()
	oks := make([][]bool, n)
	for i := range oks {
		oks[i] = make([]bool, w.iters)
	}
	hostT := make([]time.Time, w.iters+1) // rank 0's host clock at each barrier
	cpuT := make([]time.Duration, w.iters+1)
	makespan := make([]int64, w.iters)

	in.spans.begin("run")
	start := time.Now()
	cpu0 := cpuTime()
	panicked := runRecover(func() {
		world.Run(func(p *sim.Proc, r *coll.Rank) {
			if r.ID == 0 {
				hostT[0], cpuT[0] = time.Now(), cpuTime()
			}
			for it := 0; it < w.iters; it++ {
				t := p.Now()
				ok := w.iteration(p, r, &inputs, it)
				world.Barrier(p)
				oks[r.ID][it] = ok
				if r.ID == 0 {
					hostT[it+1], cpuT[it+1] = time.Now(), cpuTime()
					makespan[it] = int64(p.Now().Sub(t))
				}
			}
		})
	})
	ps.cpu = cpuTime() - cpu0
	ps.wall = time.Since(start)
	if panicked != "" {
		in.spans.end()
		ps.failed = w.iters
		ps.note(panicked)
		return ps
	}
	for it := 0; it < w.iters; it++ {
		in.spans.add("op", hostT[it], hostT[it+1])
		ps.ops = append(ps.ops, opTime{kind: inputs.kinds[it], wall: hostT[it+1].Sub(hostT[it]), cpu: cpuT[it+1] - cpuT[it]})
	}
	in.spans.end()

	// An op fails when any rank did not finish it or saw a wrong output.
	var blocked []string
	seen := map[*sim.Engine]bool{}
	for _, node := range world.Cl.Nodes {
		if seen[node.Card.Eng] {
			continue
		}
		seen[node.Card.Eng] = true
		for _, b := range node.Card.Eng.Blocked() {
			if strings.HasPrefix(b, "coll.rank") {
				blocked = append(blocked, b)
			}
		}
	}
	if len(blocked) > 0 {
		ps.note(fmt.Sprintf("unfinished ranks: %v", blocked))
	}
	for it := 0; it < w.iters; it++ {
		for r := 0; r < n; r++ {
			if !oks[r][it] {
				ps.fail(fmt.Sprintf("iteration %d: rank %d saw a wrong or missing output", it, r))
				break
			}
		}
	}

	wantBytes, msgs := w.rxBytes(&inputs, cfg.GetRequestBytes)
	var gotBytes int64
	for _, node := range world.Cl.Nodes {
		gotBytes += node.Card.Stats().RXBytes
	}
	if gotBytes != wantBytes {
		ps.note(fmt.Sprintf("cards received %d payload bytes, want %d", gotBytes, wantBytes))
		if ps.failed == 0 {
			ps.fail("duplicate or missing messages")
		}
	}
	ps.msgs = msgs
	ps.counts.steps = acct.Steps()
	ps.counts.peakPending = acct.PeakPending()
	ps.counts.rounds, ps.counts.busyRounds = acct.ShardRounds()
	ps.counts.shards = uint64(world.Shards())
	ps.counts.collMsgs = uint64(msgs)
	ps.counts.addCluster(world.Cl)
	ps.makespans = makespan
	return ps
}

// newWorld builds the workload's world at the given shard count on a
// fresh engine that accounts into cfg.Account, and returns it with the
// host time the build took.
func (w *torusWorkload) newWorld(shards int, cfg *core.Config) (*coll.World, *sim.Engine, time.Duration, error) {
	eng := sim.NewWithAccount(cfg.Account)
	t0 := time.Now()
	world, err := coll.NewWorld(eng, coll.Config{
		Dims: w.dims, Card: cfg, Buf: core.GPUMem, SlotBytes: 4 * units.MB, Shards: shards,
	})
	return world, eng, time.Since(t0), err
}

func (w *torusWorkload) setupSample() (time.Duration, error) {
	cfg := core.DefaultConfig()
	cfg.Account = &sim.Account{}
	_, eng, build, err := w.newWorld(w.shards, &cfg)
	if err != nil {
		return 0, fmt.Errorf("%s: build: %w", w.name, err)
	}
	eng.Shutdown()
	return build, nil
}

// cellsChanged compares a reference pass with the recorded reference.
func (w *torusWorkload) cellsChanged(ps *passStats) int {
	if w.ref == nil {
		ps.note("no recorded reference")
		return len(ps.makespans) + 1
	}
	changed := 0
	for i, m := range ps.makespans {
		if i >= len(w.ref.MakespanPS) || w.ref.MakespanPS[i] != m {
			changed++
			ps.note(fmt.Sprintf("iteration %d makespan %d ps differs from the reference", i, m))
		}
	}
	if len(ps.makespans) != len(w.ref.MakespanPS) {
		changed++
	}
	if ps.counts.steps != w.ref.Steps {
		changed++
		ps.note(fmt.Sprintf("sim.steps %d, reference %d", ps.counts.steps, w.ref.Steps))
	}
	return changed
}
