package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"apenetsim/internal/cluster"
)

// passInput is what one pass of a workload is given.
type passInput struct {
	seed  int64
	index int
	// shards, when non-zero, overrides a torus workload's shard count.
	shards int
	spans  *spans
}

// counts are the exact, seed-independent model counters of one pass.
type counts struct {
	steps, peakPending         uint64
	rounds, busyRounds, shards uint64
	packets, hops, getRequests uint64
	lookups, collMsgs          uint64
}

func (c *counts) add(o counts) {
	c.steps += o.steps
	if o.peakPending > c.peakPending {
		c.peakPending = o.peakPending
	}
	c.rounds += o.rounds
	c.busyRounds += o.busyRounds
	c.packets += o.packets
	c.hops += o.hops
	c.getRequests += o.getRequests
	c.lookups += o.lookups
	c.collMsgs += o.collMsgs
}

// addCluster folds in the counters the card, network and translator
// models expose.
func (c *counts) addCluster(cl *cluster.Cluster) {
	for _, node := range cl.Nodes {
		if node.Card == nil {
			continue
		}
		st := node.Card.Stats()
		c.packets += uint64(st.RXPackets)
		c.getRequests += uint64(st.GetRequests)
		c.lookups += uint64(node.Card.TranslationStats().Lookups)
	}
	if cl.Net != nil {
		for _, l := range cl.Net.LinkStats() {
			c.hops += uint64(l.Packets)
		}
	}
}

// passStats is the outcome of one pass.
type passStats struct {
	setup     []time.Duration // host time of each machine build
	wall      time.Duration   // host time of the pass, machine builds excluded
	cpu       time.Duration   // user+sys time over the same span
	attempted int
	failed    int
	msgs      int64    // simulated PUT and GET completions
	ops       []opTime // every op of the pass, kinds in any order
	makespans []int64  // torus: simulated makespan of each iteration, ps
	counts    counts
	// cellsChanged counts simulated results that differ from the
	// committed reference (p2p points are checked in every pass).
	cellsChanged int
	notes        []string
}

// opTime is the host time of one op. A pass runs each op kind once, and
// ops of one kind do the same work in every pass.
type opTime struct {
	kind      int
	wall, cpu time.Duration
}

func (ps *passStats) fail(msg string) {
	ps.failed++
	ps.note(msg)
}

// note keeps the first few diagnostics of a pass.
func (ps *passStats) note(msg string) {
	if len(ps.notes) < 8 {
		ps.notes = append(ps.notes, msg)
	}
}

func sumDurations(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sumOfMedians adds up, over the kinds of byKind, the median of each
// kind's samples.
func sumOfMedians(byKind map[int][]float64) float64 {
	var s float64
	for _, xs := range byKind {
		s += median(xs)
	}
	return s
}

// runRecover runs fn and returns the panic it raised, if any.
func runRecover(fn func()) (msg string) {
	defer func() {
		if v := recover(); v != nil {
			msg = fmt.Sprint("panic: ", v)
		}
	}()
	fn()
	return ""
}

// cpuTime is the process's user+sys time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set so far, in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats is a snapshot of the Go runtime counters the benchmark reports.
type goStats struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU                    float64
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{val(0), val(1), val(2), val(3), val(4)}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{g.allocBytes - o.allocBytes, g.allocObjects - o.allocObjects,
		g.gcCycles - o.gcCycles, g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU}
}

// spans records host-time intervals around the benchmark's own calls
// (setup, run, each op) in memory; the traced run writes them out at the
// end. A nil *spans records nothing, so untraced runs pay no cost.
type spans struct {
	origin time.Time
	list   []span
	open   []int // stack of open span indices
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpans() *spans { return &spans{origin: time.Now()} }

func (s *spans) parent() int {
	if len(s.open) == 0 {
		return -1
	}
	return s.open[len(s.open)-1]
}

func (s *spans) begin(name string) {
	if s == nil {
		return
	}
	s.list = append(s.list, span{ID: len(s.list), Parent: s.parent(), Name: name,
		Start: int64(time.Since(s.origin))})
	s.open = append(s.open, len(s.list)-1)
}

func (s *spans) end() {
	if s == nil {
		return
	}
	i := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	s.list[i].End = int64(time.Since(s.origin))
}

// add records a finished span under the innermost open one.
func (s *spans) add(name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.list = append(s.list, span{ID: len(s.list), Parent: s.parent(), Name: name,
		Start: int64(start.Sub(s.origin)), End: int64(end.Sub(s.origin))})
}

// selfTimes sums, per span name, the total duration and the self time
// (duration minus the part covered by child spans).
func (s *spans) selfTimes() map[string][2]time.Duration {
	child := make([]int64, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	out := map[string][2]time.Duration{}
	for i, sp := range s.list {
		t := out[sp.Name]
		t[0] += time.Duration(sp.End - sp.Start)
		t[1] += time.Duration(sp.End - sp.Start - child[i])
		out[sp.Name] = t
	}
	return out
}

// durationsMS converts host durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
