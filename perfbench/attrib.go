package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// The CPU attribution helper. It reads CPU profiles through the
// installed `go tool pprof -traces` and charges every sample to one
// layer: the package of its innermost repro/internal frame. Runtime
// callees (map operations, allocation) are charged to that caller and
// also tallied on their own lines; samples anywhere under the garbage
// collector go to the GC line instead.

// layers are the layer names a sample can be charged to: the
// simulator's internal packages, the garbage collector and everything
// else (the Go scheduler, the benchmark's own bookkeeping).
var layers = []string{
	"consensus", "ctabcast", "experiment", "fd", "gm", "groups", "hbfd",
	"netmodel", "proto", "rbcast", "seqabcast", "sim", "stats",
	"topo", "workload", "gc", "other",
}

// attribution is a profile grouped by layer.
type attribution struct {
	total  time.Duration
	layer  map[string]time.Duration
	mapOps time.Duration // runtime map and hash work, wherever charged
	alloc  time.Duration // runtime allocation, wherever charged
}

// covered is the share of samples charged to a named layer: everything
// but "other".
func (a *attribution) covered() float64 {
	if a.total == 0 {
		return 0
	}
	return 1 - float64(a.layer["other"])/float64(a.total)
}

// attributeProfile runs `go tool pprof -traces` on CPU profile files,
// which it merges, and groups their samples.
func attributeProfile(paths []string) (*attribution, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	a, perr := parseTraces(out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return a, perr
}

// parseTraces groups the text of `go tool pprof -traces`: blocks
// separated by dashed lines, each starting with the sample value and
// listing the stack from the leaf outwards.
func parseTraces(r io.Reader) (*attribution, error) {
	a := &attribution{layer: make(map[string]time.Duration)}
	var value time.Duration
	var stack []string
	flush := func() {
		if stack != nil {
			a.add(value, stack)
		}
		stack = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSpace(line)
		if stack == nil {
			// First line of a block: "<value>   <leaf frame>".
			fields := strings.Fields(frame)
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: bad block start %q", line)
			}
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value %q", fields[0])
			}
			value = v
			frame = strings.TrimSpace(strings.TrimPrefix(frame, fields[0]))
		}
		stack = append(stack, strings.TrimSuffix(frame, " (inline)"))
	}
	flush()
	return a, sc.Err()
}

// add charges one stack (leaf first) carrying value.
func (a *attribution) add(value time.Duration, stack []string) {
	a.total += value
	for _, f := range stack {
		if isGC(f) {
			a.layer["gc"] += value
			return
		}
	}
	// The runtime frames between the leaf and the first frame outside
	// the runtime are the callees charged to that caller.
	for _, f := range stack {
		if !isRuntime(f) {
			break
		}
		if isMap(f) {
			a.mapOps += value
			break
		}
		if isAlloc(f) {
			a.alloc += value
			break
		}
	}
	a.layer[layerOf(stack)] += value
}

// layerOf returns the package of the innermost repro/internal frame of
// a stack, or "other".
func layerOf(stack []string) string {
	for _, f := range stack {
		if pkg, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(pkg, "./"); i > 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
	}
	return "other"
}

func isRuntime(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/") ||
		strings.HasPrefix(f, "aeshash") || strings.HasPrefix(f, "memeqbody") ||
		strings.HasPrefix(f, "indexbytebody")
}

func isGC(f string) bool {
	return strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
		strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot") ||
		f == "runtime.sweepone"
}

func isMap(f string) bool {
	return strings.HasPrefix(f, "internal/runtime/maps.") || strings.HasPrefix(f, "runtime.map") ||
		strings.HasSuffix(f, "hash") || strings.Contains(f, "hash64") || strings.Contains(f, "hash32") ||
		strings.HasPrefix(f, "runtime.efaceeq") || strings.HasPrefix(f, "runtime.ifaceeq")
}

func isAlloc(f string) bool {
	for _, p := range []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.convT", "runtime.rawbyteslice",
		"runtime.rawstring",
	} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}
