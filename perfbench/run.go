package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro"
)

// pass runs the whole grid once, steady points then transient points,
// each kind in one Runner call, and returns one digest per point.
func (g *grid) pass(r *repro.Runner) []digest {
	out := make([]digest, 0, len(g.steady)+len(g.transient))
	for _, res := range r.SteadyAll(g.steady) {
		out = append(out, steadyDigest(res))
	}
	for _, res := range r.TransientAll(g.transient) {
		out = append(out, transientDigest(res))
	}
	return out
}

// verify runs every point serially in its own Runner call, so that a
// panic fails exactly that point, and notes lost probes and diverged or
// empty runs. The results are those of the grid pass: a point's outcome
// depends only on its config. It also returns the points that panicked.
func (g *grid) verify() ([]digest, *pointCheck, map[int]bool) {
	check := newPointCheck(g.names())
	panicked := make(map[int]bool)
	serial := repro.Runner{Workers: 1}
	out := make([]digest, 0, len(check.names))
	for _, cfg := range g.steady {
		i := len(out)
		out = append(out, 0)
		func() {
			defer func() {
				if p := recover(); p != nil {
					check.fail(i, "panic: %v", p)
					panicked[i] = true
				}
			}()
			res := serial.Steady(cfg)
			out[i] = steadyDigest(res)
			if res.Messages == 0 || res.Diverged {
				check.note(i, "messages=%d diverged=%v", res.Messages, res.Diverged)
			}
		}()
	}
	for _, cfg := range g.transient {
		i := len(out)
		out = append(out, 0)
		func() {
			defer func() {
				if p := recover(); p != nil {
					check.fail(i, "panic: %v", p)
					panicked[i] = true
				}
			}()
			res := serial.Transient(cfg)
			out[i] = transientDigest(res)
			if res.Lost > 0 {
				check.note(i, "%d of %d probes lost", res.Lost, cfg.Replications)
			}
		}()
	}
	return out, check, panicked
}

// without returns a copy of the grid minus the given points (those that
// panicked, which a timed pass cannot survive) and, for each point of
// the copy, its index in g.
func (g *grid) without(drop map[int]bool) (*grid, []int) {
	out := &grid{}
	var kept []int
	for i, cfg := range g.steady {
		if !drop[i] {
			out.steady = append(out.steady, cfg)
			out.steadyNames = append(out.steadyNames, g.steadyNames[i])
			kept = append(kept, i)
		}
	}
	for i, cfg := range g.transient {
		if j := len(g.steady) + i; !drop[j] {
			out.transient = append(out.transient, cfg)
			out.transientNames = append(out.transientNames, g.transientNames[i])
			kept = append(kept, j)
		}
	}
	return out, kept
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sample is the cost of one timed grid pass.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64
	digests   []digest
}

// timedPass runs one pass from a collected heap and measures it.
func timedPass(g *grid, r *repro.Runner) sample {
	runtime.GC()
	a0, c0, t0 := totalAlloc(), cpuTime(), time.Now()
	ds := g.pass(r)
	wall := time.Since(t0)
	return sample{wall: wall, cpu: cpuTime() - c0, alloc: totalAlloc() - a0, digests: ds}
}

// setupTimes times the workload's set-up: k samples, each the mean
// duration of a batch of builds sized to take at least setupBatch, after
// one untimed batch. Collection is off while sampling, so that the
// samples time the building itself, which for most workloads takes a
// few microseconds. It returns the samples in seconds and the last grid.
func setupTimes(w workload, seed uint64, s scale, k int) ([]float64, *grid) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	g := w.build(seed, s)
	batch := int(setupBatch/time.Since(t0)) + 1
	times := make([]float64, k+1)
	for i := range times {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			g = w.build(seed, s)
		}
		times[i] = time.Since(t0).Seconds() / float64(batch)
	}
	return times[1:], g
}

// setupBatch is the least duration of one set-up sample.
const setupBatch = 50 * time.Millisecond
