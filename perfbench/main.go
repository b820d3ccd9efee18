// Command perfbench is the simulator's benchmark. It measures the
// simulator as a program: the host time, CPU and memory a researcher
// pays to run a fixed grid of FD-vs-GM experiments through repro.Runner.
// Virtual-time results are checked outputs, not metrics.
//
//	perfbench --workload steady|faults|topology --seed N --seconds S --trace 0|1
//
// With --trace 0 it repeats the workload's grid for S seconds and
// prints the end-to-end metrics; with --trace 1 it prints the per-layer
// metrics of a separate profiled and observed run. The last line of
// standard output is one JSON object. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
)

// referenceJSON holds the recorded output digests (see -record).
//
//go:embed reference.json
var referenceJSON []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    uint64
	seconds time.Duration
	out     string
	scale   scale
}

// minPasses is the least number of timed grid passes a run makes,
// however short --seconds is.
const minPasses = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: steady, faults or topology")
	seed := fl.Uint64("seed", 1, "workload seed; every point of the grid derives its own seed from it")
	seconds := fl.Float64("seconds", 10, "how long to repeat the timed grid passes")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a profiled run")
	out := fl.String("out", filepath.Join(".bench_build", "trace"), "directory for profiles and spans of --trace 1")
	tiny := fl.Bool("tiny", false, "shrink every workload and skip the reference digests (for tests)")
	record := fl.String("record", "", "record reference digests of every workload into this file and exit")
	seeds := fl.String("seeds", "1", "seeds to record, as FIRST-LAST")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *record != "" {
		if err := recordReference(*record, *seeds, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload steady|faults|topology, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	ref, err := parseReference(referenceJSON)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		out:     *out,
		scale:   scale{tiny: *tiny},
	}
	if o.scale.tiny {
		ref = nil
	}
	var res result
	if *trace == 1 {
		res, err = traced(w, o, ref, stdout)
	} else {
		res = timed(w, o, ref, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checkedGrid is a workload set up and verified by prepare: the set-up
// durations, the serial digests, the check, and the grid a timed pass
// can run (panicking points removed) with its index map.
type checkedGrid struct {
	setup  []float64
	serial []digest
	check  *pointCheck
	grid   *grid
	kept   []int
}

// prepare sets the workload up, then runs every point once serially and
// checks it against the reference digests, if recorded for this seed.
func prepare(w workload, o options, ref *reference, setupReps int, out io.Writer) checkedGrid {
	setup, g := setupTimes(w, o.seed, o.scale, setupReps)
	serial, check, panicked := g.verify()
	names, ds := ref.lookup(w.name, o.seed)
	if ds == nil {
		fmt.Fprintf(out, "# no reference digests for %s at seed %d: checking determinism only\n", w.name, o.seed)
	}
	check.against(names, ds, serial)
	tg, kept := g.without(panicked)
	return checkedGrid{setup: setup, serial: serial, check: check, grid: tg, kept: kept}
}

// outcome fills the correctness fields of a result and reports the
// failed points.
func (c checkedGrid) outcome(out io.Writer) result {
	for _, n := range c.check.noted() {
		fmt.Fprintln(out, "# NOTE", n)
	}
	fails := c.check.failures()
	for _, f := range fails {
		fmt.Fprintln(out, "# FAILED", f)
	}
	n := len(c.check.names)
	fmt.Fprintf(out, "# fail_frac %.4f ratio (%d of %d points)\n", float64(len(fails))/float64(n), len(fails), n)
	return result{
		Correct:   len(fails) == 0,
		Attempted: n,
		Failed:    len(fails),
		Metrics:   make(map[string]metric),
	}
}

// timed measures the end-to-end metrics: it repeats the grid on the
// workload's Runner for the run's duration and reports per-pass medians.
func timed(w workload, o options, ref *reference, out io.Writer) result {
	setupReps := 9
	if o.scale.tiny {
		setupReps = 2
	}
	cg := prepare(w, o, ref, setupReps, out)
	var walls, cpus, allocs []float64
	for _, s := range passes(cg, w.workers, minPasses, o.seconds, "a timed pass") {
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, float64(s.alloc)/(1<<20))
	}
	host := newHostRecord(w.name, o.seed, false)
	host.Runs = len(walls)
	printHost(out, host, cg.grid)
	res := cg.outcome(out)
	n := len(cg.check.names)
	res.Metrics["wall_s"] = report(out, "wall_s", "s", walls)
	res.Metrics["cpu_s"] = report(out, "cpu_s", "s", cpus)
	res.Metrics["alloc_mb"] = report(out, "alloc_mb", "MiB", allocs)
	res.Metrics["setup_s"] = report(out, "setup_s", "s", cg.setup)
	res.Metrics["pass_frac"] = metric{Value: float64(n-res.Failed) / float64(n), Unit: "ratio"}
	return res
}

// report prints a metric's median, quartiles and sample count, and
// returns the median.
func report(out io.Writer, name, unit string, xs []float64) metric {
	m := median(xs)
	fmt.Fprintf(out, "# %-12s %12.6g %-5s q1 %.6g q3 %.6g n=%d\n", name, m, unit, quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
	return metric{Value: m, Unit: unit}
}

func printHost(out io.Writer, h hostRecord, g *grid) {
	data, _ := json.Marshal(h) // a struct of plain fields always marshals
	fmt.Fprintf(out, "# host %s\n", data)
	fmt.Fprintf(out, "# grid %d points, %d simulations per pass\n", len(g.steady)+len(g.transient), g.replications())
}

// passes runs the grid on a Runner of the given size until at least min
// passes and budget have gone by, checking every pass's digests.
func passes(cg checkedGrid, workers, min int, budget time.Duration, what string) []sample {
	r := repro.Runner{Workers: workers}
	var out []sample
	start := time.Now()
	for len(out) < min || time.Since(start) < budget {
		s := timedPass(cg.grid, &r)
		cg.check.same(what, cg.serial, cg.kept, s.digests)
		out = append(out, s)
	}
	return out
}

// medianWall is the median wall time of samples, in seconds.
func medianWall(samples []sample) float64 {
	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall.Seconds()
	}
	return median(walls)
}

// traced measures the per-layer metrics. Its timings are separate from
// the end-to-end run: untraced passes, passes at the other pool size,
// CPU-profiled passes with spans, one pass with the counting observers,
// then the layer microbenchmarks.
func traced(w workload, o options, ref *reference, out io.Writer) (result, error) {
	cg := prepare(w, o, ref, 1, out)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	sp := newSpans()

	untraced := medianWall(passes(cg, w.workers, 2, o.seconds/3, "an untraced pass"))

	// The pool speed-up compares the grid at 1 worker and at one worker
	// per CPU; serial passes also record replication spans.
	var serialWall, pooledWall float64
	if w.workers == 1 {
		serialWall = untraced
		pooledWall = medianWall(passes(cg, 0, 2, 0, "a pooled pass"))
	} else {
		pooledWall = untraced
		root := sp.open(0, "workload:"+w.name+":serial")
		var walls []float64
		for i := 0; i < 2; i++ {
			runtime.GC()
			t0 := time.Now()
			cg.check.same("a serial pass", cg.serial, cg.kept, sp.tracedPass(cg.grid, 1, root))
			walls = append(walls, time.Since(t0).Seconds())
		}
		sp.close(root)
		serialWall = median(walls)
	}

	// Profiled passes, one profile file per pass so that the collection
	// between passes stays out of the samples.
	var profiled []float64
	var files []string
	root := sp.open(0, "workload:"+w.name)
	start := time.Now()
	for len(profiled) < 2 || time.Since(start) < o.seconds/2 {
		path := fmt.Sprintf("%s.cpu%d.pprof", base, len(profiled))
		f, err := os.Create(path)
		if err != nil {
			return result{}, err
		}
		runtime.GC()
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return result{}, err
		}
		t0 := time.Now()
		ds := sp.tracedPass(cg.grid, w.workers, root)
		profiled = append(profiled, time.Since(t0).Seconds())
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return result{}, err
		}
		cg.check.same("a profiled pass", cg.serial, cg.kept, ds)
		files = append(files, path)
	}
	sp.close(root)

	// One pass with the counting observers attached; observing must not
	// change a single output.
	var k counting
	r := repro.Runner{Workers: w.workers}
	cg.check.same("an observed pass", cg.serial, cg.kept, cg.grid.observed(&k).pass(&r))
	c := k.total()

	microValues := runMicros(o.seed, o.scale)

	att, err := attributeProfile(files)
	if err != nil {
		return result{}, err
	}
	if err := sp.write(base + ".spans.json"); err != nil {
		return result{}, err
	}

	host := newHostRecord(w.name, o.seed, true)
	host.Runs = len(profiled)
	printHost(out, host, cg.grid)
	res := cg.outcome(out)
	m := res.Metrics
	perPass := float64(len(profiled))
	for _, l := range layers {
		m[selfMetric(l)] = metric{Value: att.layer[l].Seconds() / perPass, Unit: "s"}
	}
	m["runtime.map_s"] = metric{Value: att.mapOps.Seconds() / perPass, Unit: "s"}
	m["runtime.alloc_s"] = metric{Value: att.alloc.Seconds() / perPass, Unit: "s"}
	m["profile.cpu_s"] = metric{Value: att.total.Seconds() / perPass, Unit: "s"}
	m["profile.coverage"] = metric{Value: att.covered(), Unit: "ratio"}
	for _, d := range micros {
		m[d.metric] = metric{Value: microValues[d.metric], Unit: d.unit}
	}
	perAbcast := func(n int) float64 {
		if c.broadcasts == 0 {
			return 0
		}
		return float64(n) / float64(c.broadcasts)
	}
	m["netmodel.hops_per_abcast"] = metric{Value: perAbcast(c.wires), Unit: "count"}
	m["netmodel.sends_per_abcast"] = metric{Value: perAbcast(c.sends), Unit: "count"}
	m["experiment.deliveries_per_abcast"] = metric{Value: perAbcast(c.deliveries), Unit: "count"}
	for _, p := range msgPackages {
		m["proto.msgs_per_abcast."+p] = metric{Value: perAbcast(c.byPkg[p]), Unit: "count"}
	}
	reps := sp.durations("replication")
	m["experiment.rep_ms_p50"] = metric{Value: 1e3 * quantile(reps, 0.5), Unit: "ms"}
	m["experiment.rep_ms_p90"] = metric{Value: 1e3 * quantile(reps, 0.9), Unit: "ms"}
	m["experiment.pool_speedup"] = metric{Value: serialWall / pooledWall, Unit: "ratio"}
	m["tracing_overhead"] = metric{Value: median(profiled) / untraced, Unit: "ratio"}

	printLayers(out, att, perPass)
	fmt.Fprintf(out, "# spans and profiles: %s.*\n", base)
	return res, nil
}

// selfMetric names a layer's self-time metric.
func selfMetric(layer string) string {
	switch layer {
	case "gc":
		return "runtime.gc_s"
	case "other":
		return "runtime.other_s"
	}
	return layer + ".self_s"
}

// printLayers prints the profile's layer split, largest first.
func printLayers(out io.Writer, a *attribution, perPass float64) {
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(a.total) }
	fmt.Fprintf(out, "# layer self time per pass (%.3f s of samples per pass, %.1f%% in named layers)\n",
		a.total.Seconds()/perPass, 100*a.covered())
	byTime := append([]string(nil), layers...)
	sort.SliceStable(byTime, func(i, j int) bool { return a.layer[byTime[i]] > a.layer[byTime[j]] })
	for _, l := range byTime {
		if a.layer[l] > 0 {
			fmt.Fprintf(out, "#   %-24s %8.4f s %5.1f%%\n", selfMetric(l), a.layer[l].Seconds()/perPass, share(a.layer[l]))
		}
	}
	for _, x := range []struct {
		name string
		d    time.Duration
	}{{"runtime.map_s", a.mapOps}, {"runtime.alloc_s", a.alloc}} {
		fmt.Fprintf(out, "#   %-24s %8.4f s %5.1f%% (charged to callers above)\n", x.name, x.d.Seconds()/perPass, share(x.d))
	}
}

// recordReference runs every workload serially at each seed of the
// range and writes the digests.
func recordReference(path, seeds string, out io.Writer) error {
	lo, hi, err := seedRange(seeds)
	if err != nil {
		return err
	}
	ref := &reference{}
	for _, w := range workloads {
		for seed := lo; seed <= hi; seed++ {
			g := w.build(seed, scale{})
			ds, check, _ := g.verify()
			if fails := check.failures(); len(fails) > 0 {
				return fmt.Errorf("%s at seed %d: %s", w.name, seed, strings.Join(fails, "; "))
			}
			ref.record(w.name, seed, g.names(), ds)
			fmt.Fprintf(out, "recorded %s seed %d\n", w.name, seed)
			for _, n := range check.noted() {
				fmt.Fprintf(out, "  note: %s\n", n)
			}
		}
	}
	return ref.save(path)
}

func seedRange(s string) (lo, hi uint64, err error) {
	first, last, found := strings.Cut(s, "-")
	if lo, err = strconv.ParseUint(first, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad -seeds %q", s)
	}
	hi = lo
	if found {
		if hi, err = strconv.ParseUint(last, 10, 64); err != nil || hi < lo {
			return 0, 0, fmt.Errorf("bad -seeds %q", s)
		}
	}
	return lo, hi, nil
}
