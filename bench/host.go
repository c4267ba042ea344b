package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"telegraphos/internal/experiments"
)

// Host-side readings. The benchmark measures the host, so these are the
// only places it reads the wall clock or host metadata; none of them
// feeds a simulation.

func wallNow() time.Time {
	return time.Now() //tgvet:allow walltime(the benchmark measures host time; simulated time never comes from here)
}

func numCPU() int {
	return runtime.NumCPU() //tgvet:allow taint(host metadata recorded in the result file; never feeds a simulation)
}

func gomaxprocs() int {
	return runtime.GOMAXPROCS(0) //tgvet:allow taint(host metadata recorded in the result file; never feeds a simulation)
}

func goVersion() string { return runtime.Version() }

// peakRSSMB reads this process's peak resident set (VmHWM) in MiB. The
// rusage figure (ru_maxrss) would not do: Linux carries the parent's
// peak into a child across exec, so every child would report at least
// the parent's.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status") //tgvet:allow tracesink(reads this process's peak resident set, a host measurement)
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// refSpin is the repository's host-speed calibration: a fixed
// CPU-bound loop, so results from two hosts can be read side by side.
func refSpin() time.Duration { return experiments.RefSpin() }

const (
	// refLoop links refInserts objects of 64 bytes into refSlots slots:
	// an 8 MiB live heap, about 55 ms on the idle recording host.
	refSlots   = 1 << 17
	refInserts = 200_000
	// refLoopS is refLoop's time on the idle recording host: at that
	// host speed the scaled figures equal the raw ones.
	refLoopS = 0.060
)

type refNode struct {
	next *refNode
	_    [7]uint64
}

// refLoop times a fixed piece of work that belongs to the benchmark, so
// no change to the simulator changes its speed: small objects allocated
// and linked into a live heap of 8 MiB, which the collector marks on
// both CPUs. The host the benchmark runs on is shared, and its speed
// drifts by ±15 % and more over tens of seconds; runner times this loop
// between child processes, and the end-to-end times are scaled by how
// much slower than refLoopS it ran around each child (see
// hostSlowdown). Of the loops tried, this one tracked all three
// workloads best.
func refLoop() float64 {
	start := wallNow()
	live := make([]*refNode, refSlots)
	for i := 0; i < refInserts; i++ {
		j := (i * 7919) & (refSlots - 1)
		live[j] = &refNode{next: live[(j+1)&(refSlots-1)]}
	}
	runtime.GC()
	elapsed := wallNow().Sub(start).Seconds()
	runtime.KeepAlive(live)
	// Free the live heap now, not while the next child process runs.
	runtime.GC()
	return elapsed
}
