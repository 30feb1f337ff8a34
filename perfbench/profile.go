package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuClasses are the buckets the traced run folds CPU samples into, in
// report order.
var cpuClasses = []string{"sim", "pcie", "core", "gpu", "coll", "rt_sched", "rt_malloc", "rt_gc", "other"}

// runtime functions by bucket, matched as substrings of the symbol.
var (
	rtSched = []string{"chansend", "chanrecv", "chan.", "gopark", "goready", "park_m", "schedule",
		"findRunnable", "runqget", "runqput", "runqsteal", "futex", "casgstatus", "mcall", "gogo",
		"execute", "ready", "wakep", "startm", "stopm", "notesleep", "notewakeup", "lock2", "unlock2",
		"procyield", "osyield", "stealWork", "selectgo", "Sudog", "runtime.send", "runtime.recv",
		"goschedImpl", "gosched", "checkTimers", "resetspinning", "nanotime", "usleep", "guintptr",
		"waitq", "pidleget", "wirep", "acquirem", "releasem", "timers", "pMask", "mLockProfile",
		"timeHistogram"}
	rtMalloc = []string{"mallocgc", "nextFreeFast", "mcache", "mcentral", "mheap", "newobject",
		"makeslice", "makemap", "growslice", "memclrNoHeapPointers", "heapBitsSetType", "newarray",
		"(*mspan).init", "nextFreeIndex", "allocSpan", "heapSetType", "publicationBarrier", "rawstring"}
	rtGC = []string{"gcBgMarkWorker", "gcDrain", "scanobject", "markroot", "greyobject", "findObject",
		"gcWork", "sweep", "gcAssist", "wbBuf", "gcWriteBarrier", "scanblock", "scanstack", "scanframe",
		"gcmark", "gcMark", "bulkBarrier", "typePointers", "spanOf", "shade", "markBits", "gcStart",
		"gcFlush", "wbBufFlush", "gcBits"}
)

// classify maps a profiled function symbol to its bucket.
func classify(fn string) string {
	for _, pkg := range []struct{ prefix, class string }{
		{"apenetsim/internal/sim.", "sim"},
		{"apenetsim/internal/pcie.", "pcie"},
		// The card's firmware, translation and routing helpers are part
		// of the card model.
		{"apenetsim/internal/core.", "core"},
		{"apenetsim/internal/nios.", "core"},
		{"apenetsim/internal/v2p.", "core"},
		{"apenetsim/internal/route.", "core"},
		{"apenetsim/internal/torus.", "core"},
		{"apenetsim/internal/rdma.", "core"},
		{"apenetsim/internal/gpu.", "gpu"},
		{"apenetsim/internal/cuda.", "gpu"},
		{"apenetsim/internal/coll.", "coll"},
	} {
		if strings.HasPrefix(fn, pkg.prefix) {
			return pkg.class
		}
	}
	if !strings.HasPrefix(fn, "runtime.") {
		return "other"
	}
	for _, set := range []struct {
		subs  []string
		class string
	}{{rtGC, "rt_gc"}, {rtMalloc, "rt_malloc"}, {rtSched, "rt_sched"}} {
		for _, s := range set.subs {
			if strings.Contains(fn, s) {
				return set.class
			}
		}
	}
	return "other"
}

// foldProfile reads a CPU profile with `go tool pprof -top` and returns
// the share of flat samples that falls into each bucket.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-symbolize=none", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	return foldTop(out.String())
}

// foldTop parses pprof -top text: after the header line, each row is
// "flat flat% sum% cum cum% function...".
func foldTop(text string) (map[string]float64, error) {
	by := map[string]float64{}
	var total float64
	rows := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		by[classify(f[5])] += ms
		total += ms
	}
	if !rows {
		return nil, fmt.Errorf("pprof -top output has no table")
	}
	out := map[string]float64{}
	for _, c := range cpuClasses {
		if total > 0 { // a run shorter than one sampling period has none
			out[c] = by[c] / total
		}
	}
	return out, nil
}
