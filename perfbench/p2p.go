package main

import (
	"fmt"
	"math/rand"
	"time"

	"apenetsim/internal/bench"
	"apenetsim/internal/cluster"
	"apenetsim/internal/core"
	"apenetsim/internal/gpu"
	"apenetsim/internal/rdma"
	"apenetsim/internal/sim"
	"apenetsim/internal/units"
)

// pointKind is the measurement pattern of one p2p-2node sweep point.
type pointKind int

const (
	loopback pointKind = iota // single card, G-G loop-back PUT stream (fig5)
	twoNode                   // two torus neighbors, PUT stream (fig6, fig7 P2P)
	staged                    // two nodes, cudaMemcpy staging on both sides (fig7 P2P=OFF)
)

// cellRef names one committed report cell: experiment, row label, column.
type cellRef struct{ exp, row, col string }

// p2pPoint is one serial simulation of the p2p-2node sweep.
type p2pPoint struct {
	kind     pointKind
	msg      units.ByteSize
	ver      int            // loopback: GPU_P2P_TX version
	window   units.ByteSize // loopback: prefetch window (0 keeps the default)
	src, dst core.MemKind   // twoNode: buffer kinds
	cells    []cellRef      // committed cells the point regenerates
}

func (pt p2pPoint) String() string {
	c := pt.cells[0]
	return fmt.Sprintf("%s %s %s", c.exp, c.row, c.col)
}

// p2pPoints lists the sweep: the quick-mode fig5 points (G-G loop-back
// for every GPU TX engine and prefetch window), the fig6 points (four
// buffer combinations between two nodes) and both APEnet+ columns of
// fig7. fig7's P2P column is the same simulation as fig6's G-G column,
// so that point is run once and checked against both cells.
func p2pPoints(sizes5, sizes6 []units.ByteSize) []p2pPoint {
	var pts []p2pPoint
	engines := []struct {
		label  string
		ver    int
		window units.ByteSize
	}{
		{"v1", 1, 0},
		{"v2 window=4K", 2, 4 * units.KB},
		{"v2 window=8K", 2, 8 * units.KB},
		{"v2 window=16K", 2, 16 * units.KB},
		{"v2 window=32K", 2, 32 * units.KB},
		{"v3 window=64K", 3, 64 * units.KB},
		{"v3 window=128K", 3, 128 * units.KB},
	}
	for _, msg := range sizes5 {
		for _, e := range engines {
			pts = append(pts, p2pPoint{kind: loopback, msg: msg, ver: e.ver, window: e.window,
				cells: []cellRef{{"fig5", msg.String(), e.label}}})
		}
	}
	combos := []struct {
		label    string
		src, dst core.MemKind
	}{
		{"H-H", core.HostMem, core.HostMem},
		{"H-G", core.HostMem, core.GPUMem},
		{"G-H", core.GPUMem, core.HostMem},
		{"G-G", core.GPUMem, core.GPUMem},
	}
	for _, msg := range sizes6 {
		for _, c := range combos {
			cells := []cellRef{{"fig6", msg.String(), c.label}}
			if c.label == "G-G" {
				cells = append(cells, cellRef{"fig7", msg.String(), "APEnet+ P2P=ON"})
			}
			pts = append(pts, p2pPoint{kind: twoNode, msg: msg, src: c.src, dst: c.dst, cells: cells})
		}
		pts = append(pts, p2pPoint{kind: staged, msg: msg,
			cells: []cellRef{{"fig7", msg.String(), "APEnet+ P2P=OFF (staging)"}}})
	}
	return pts
}

// p2pWorkload runs the whole point list once per pass, in an order the
// seed shuffles; every point's bandwidth is checked against the
// committed artifact.
type p2pWorkload struct {
	points []p2pPoint
	cells  map[cellRef]string // committed cells, from the artifact
}

func (w *p2pWorkload) pass(in passInput) passStats {
	var ps passStats
	order := rand.New(rand.NewSource(in.seed*7919 + int64(in.index))).Perm(len(w.points))
	start := time.Now()
	cpu0 := cpuTime()
	for _, i := range order {
		pt := w.points[i]
		in.spans.begin("op")
		t0, c0 := time.Now(), cpuTime()
		r := runPoint(pt)
		ps.ops = append(ps.ops, opTime{kind: i, wall: time.Since(t0) - r.setup, cpu: cpuTime() - c0})
		in.spans.end()
		ps.attempted++
		ps.setup = append(ps.setup, r.setup)
		ps.msgs += r.msgs
		ps.counts.add(r.counts)
		if r.err != "" {
			ps.fail(fmt.Sprintf("%v: %s", pt, r.err))
			continue
		}
		got := fmt.Sprintf("%.0f", r.bw.MBpsValue())
		for _, c := range pt.cells {
			if want, ok := w.cells[c]; !ok || want != got {
				ps.cellsChanged++
				ps.note(fmt.Sprintf("cell %s/%s/%s = %s, committed %q", c.exp, c.row, c.col, got, want))
			}
		}
	}
	ps.cpu = cpuTime() - cpu0
	// The staged points build their machines inside the bench primitive,
	// so their build time stays in wall.
	ps.wall = time.Since(start) - sumDurations(ps.setup)
	return ps
}

// setupSample builds the machine of every point that builds its own,
// without running it. The staged points build theirs inside the bench
// primitive, which a pass cannot time apart either.
func (w *p2pWorkload) setupSample() (time.Duration, error) {
	var total time.Duration
	for _, pt := range w.points {
		if pt.kind == staged {
			continue
		}
		eng := sim.New()
		cfg := pt.config()
		t0 := time.Now()
		var err error
		if pt.kind == loopback {
			_, err = cluster.SingleNode(eng, nil, cfg, gpu.Fermi2050())
		} else {
			_, err = cluster.TwoNodes(eng, nil, cfg, 0)
		}
		total += time.Since(t0)
		eng.Shutdown()
		if err != nil {
			return 0, fmt.Errorf("%v: build: %w", pt, err)
		}
	}
	return total, nil
}

// pointResult is one sweep point's outcome.
type pointResult struct {
	bw     units.Bandwidth
	setup  time.Duration
	msgs   int64
	counts counts
	err    string
}

// msgCount mirrors the bench primitives' stream length: enough volume for
// steady state, bounded so small-message points stay cheap.
func msgCount(msg units.ByteSize) int {
	n := int(8 * units.MB / msg)
	if n < 24 {
		n = 24
	}
	if n > 1024 {
		n = 1024
	}
	return n
}

const warmMsgs = 4

// config is the card configuration the point's machine is built with.
func (pt p2pPoint) config() core.Config {
	cfg := core.DefaultConfig()
	if pt.kind == loopback {
		cfg.TXVersion = pt.ver
		if pt.window > 0 {
			cfg.PrefetchWindow = pt.window
		}
		cfg.FlushAtSwitch = false
	}
	return cfg
}

func runPoint(pt p2pPoint) (r pointResult) {
	acct := &sim.Account{}
	cfg := pt.config()
	cfg.Account = acct
	defer func() {
		if v := recover(); v != nil {
			r.err = fmt.Sprint("panic: ", v)
		}
		r.counts.steps = acct.Steps()
		r.counts.peakPending = acct.PeakPending()
	}()
	switch pt.kind {
	case loopback:
		return loopbackPoint(acct, cfg, pt.msg)
	case twoNode:
		return twoNodePoint(acct, cfg, pt.src, pt.dst, pt.msg)
	default:
		r.bw = bench.StagedTwoNodeBW(cfg, pt.msg)
		r.msgs = int64(warmMsgs + msgCount(pt.msg))
		return r
	}
}

func newBuffer(p *sim.Proc, ep *rdma.Endpoint, g *gpu.Device, kind core.MemKind, size units.ByteSize) *rdma.Buffer {
	var b *rdma.Buffer
	var err error
	if kind == core.GPUMem {
		b, err = ep.NewGPUBuffer(p, g, size)
	} else {
		b, err = ep.NewHostBuffer(p, size)
	}
	if err != nil {
		panic(err)
	}
	return b
}

// recvAll consumes n receive completions and counts those that do not
// carry exactly msg bytes.
func recvAll(p *sim.Proc, ep *rdma.Endpoint, n int, msg units.ByteSize) (bad int) {
	for i := 0; i < n; i++ {
		if c := ep.WaitRecv(p); c.Bytes != msg {
			bad++
		}
	}
	return bad
}

func put(p *sim.Proc, ep *rdma.Endpoint, dstRank int, dst, src *rdma.Buffer, n units.ByteSize) {
	if _, err := ep.PutBuffer(p, dstRank, dst, src, n, rdma.PutFlags{}); err != nil {
		panic(err)
	}
}

// loopbackPoint is the fig5 measurement (bench.LoopbackBW with a G-G
// buffer pair), written against cluster and rdma so the machine build can
// be timed on its own.
func loopbackPoint(acct *sim.Account, cfg core.Config, msg units.ByteSize) (r pointResult) {
	eng := sim.NewWithAccount(acct)
	defer eng.Shutdown()
	t0 := time.Now()
	cl, err := cluster.SingleNode(eng, nil, cfg, gpu.Fermi2050())
	r.setup = time.Since(t0)
	if err != nil {
		r.err = err.Error()
		return r
	}
	node := cl.Nodes[0]
	ep := rdma.NewEndpoint(node.Card)
	n := msgCount(msg)
	bad, done := 0, false
	eng.Go("bench", func(p *sim.Proc) {
		src := newBuffer(p, ep, node.GPU(0), core.GPUMem, msg)
		dst := newBuffer(p, ep, node.GPU(0), core.GPUMem, msg)
		for i := 0; i < warmMsgs; i++ {
			put(p, ep, 0, dst, src, msg)
		}
		bad += recvAll(p, ep, warmMsgs, msg)
		start := p.Now()
		for i := 0; i < n; i++ {
			put(p, ep, 0, dst, src, msg)
		}
		bad += recvAll(p, ep, n, msg)
		r.bw = units.Rate(units.ByteSize(n)*msg, p.Now().Sub(start))
		done = true
	})
	eng.Run()
	r.msgs = int64(warmMsgs + n)
	r.counts.addCluster(cl)
	r.err = streamErr(eng, done, bad)
	return r
}

// twoNodePoint is the fig6 measurement (bench.TwoNodeBW): a PUT stream
// between torus neighbors, timed by an acknowledgement back to the
// sender.
func twoNodePoint(acct *sim.Account, cfg core.Config, srcKind, dstKind core.MemKind, msg units.ByteSize) (r pointResult) {
	eng := sim.NewWithAccount(acct)
	defer eng.Shutdown()
	t0 := time.Now()
	cl, err := cluster.TwoNodes(eng, nil, cfg, 0)
	r.setup = time.Since(t0)
	if err != nil {
		r.err = err.Error()
		return r
	}
	sender, recver := cl.Nodes[0], cl.Nodes[1]
	epS := rdma.NewEndpoint(sender.Card)
	epR := rdma.NewEndpoint(recver.Card)
	n := msgCount(msg)

	ready := sim.NewSignal(eng)
	var dst *rdma.Buffer
	var ackTo uint64
	bad, done := 0, false
	eng.Go("recv", func(p *sim.Proc) {
		dst = newBuffer(p, epR, recver.GPU(0), dstKind, msg)
		ackBuf := newBuffer(p, epR, nil, core.HostMem, 64)
		ready.Broadcast()
		bad += recvAll(p, epR, warmMsgs+n, msg)
		if _, err := epR.Put(p, 0, ackTo, ackBuf, 0, 64, rdma.PutFlags{}); err != nil {
			panic(err)
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		src := newBuffer(p, epS, sender.GPU(0), srcKind, msg)
		ack := newBuffer(p, epS, nil, core.HostMem, 64)
		ackTo = ack.Addr
		for dst == nil {
			ready.Wait(p, "bench.ready")
		}
		for i := 0; i < warmMsgs; i++ {
			put(p, epS, 1, dst, src, msg)
		}
		start := p.Now()
		for i := 0; i < n; i++ {
			put(p, epS, 1, dst, src, msg)
		}
		bad += recvAll(p, epS, 1, 64)
		r.bw = units.Rate(units.ByteSize(n+warmMsgs)*msg, p.Now().Sub(start))
		done = true
	})
	eng.Run()
	r.msgs = int64(warmMsgs + n + 1)
	r.counts.addCluster(cl)
	r.err = streamErr(eng, done, bad)
	return r
}

// streamErr describes a point whose outputs failed the checks: an
// unfinished measuring proc or completions of the wrong size.
func streamErr(eng *sim.Engine, done bool, bad int) string {
	switch {
	case !done:
		return fmt.Sprintf("unfinished: %v", eng.Blocked())
	case bad > 0:
		return fmt.Sprintf("%d completions with the wrong byte count", bad)
	}
	return ""
}
