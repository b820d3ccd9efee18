// Command figures regenerates the data behind every figure of the paper's
// evaluation (§7): latency-vs-throughput curves for the normal-steady and
// crash-steady scenarios (Figs. 4, 5), latency versus the failure-detector
// QoS metrics TMR and TM in the suspicion-steady scenario (Figs. 6, 7),
// and the crash-transient latency overhead (Fig. 8) — plus the ablations
// discussed in §7/§8 (coordinator renumbering, the non-uniform sequencer
// variant, the λ parameter) and a Fig. 1 message-pattern equivalence
// check.
//
// Output is TSV with commented headers, one block per figure panel,
// suitable for gnuplot or any plotting tool:
//
//	figures -fig 4            # one figure
//	figures -fig all -quick   # every figure but nscale, groups and smoke, reduced resolution
//	figures -fig nscale       # nscale, groups and smoke run only by name
//
// Unstable points (messages left undelivered, the regime where the paper
// omits the GM curve) print "unstable" in place of a latency.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro"
)

// figures is every figure the command regenerates, in the order -fig all
// runs its inAll rows; the other rows run only when named.
var figures = []struct {
	name  string
	inAll bool
	run   func()
}{
	{"1", true, fig1},
	{"4", true, fig4},
	{"5", true, fig5},
	{"6", true, fig6},
	{"7", true, fig7},
	{"8", true, fig8},
	{"dist", true, figDist},
	{"hb", true, figHeartbeat},
	{"partition", true, figPartition},
	{"churn", true, figChurn},
	{"overload", true, figOverload},
	{"burst", true, figBurst},
	{"ablations", true, ablations},
	{"nscale", false, figNScale},
	{"groups", false, figGroups},
	{"smoke", false, figSmoke},
}

// figHelp lists the figure names for the -fig usage text.
func figHelp() string {
	var names, byName []string
	for _, f := range figures {
		names = append(names, f.name)
		if !f.inAll {
			byName = append(byName, f.name)
		}
	}
	return fmt.Sprintf("figure to regenerate: %s, or all (every figure but %s)",
		strings.Join(names, ", "), strings.Join(byName, ", "))
}

var (
	figFlag     = flag.String("fig", "all", figHelp())
	quickFlag   = flag.Bool("quick", false, "reduced sweeps and durations (~20x faster)")
	seedFlag    = flag.Uint64("seed", 1, "base random seed")
	repsFlag    = flag.Int("reps", 0, "replications per point (0 = scenario default)")
	workersFlag = flag.Int("workers", 0, "parallel replication workers (0 = GOMAXPROCS, 1 = serial)")
	progFlag    = flag.Bool("progress", false, "report replication progress on stderr")
	traceFlag   = flag.String("trace", "", "write the smoke grid's replayable trace to this file (fig smoke only)")
	replayFlag  = flag.String("replay", "", "replay a trace file, verify delivery digests and exit")
)

// runner fans every figure's (point, replication) grid out over a worker
// pool; results are bit-identical at any worker count.
var runner *repro.Runner

func main() {
	flag.Parse()
	runner = &repro.Runner{Workers: *workersFlag}
	if *replayFlag != "" {
		replayTrace(*replayFlag)
		return
	}
	if *traceFlag != "" && *figFlag != "smoke" {
		fmt.Fprintf(os.Stderr, "-trace records only the smoke grid; use it with -fig smoke, not -fig %s\n", *figFlag)
		os.Exit(2)
	}
	if *progFlag {
		// Progress may fire concurrently and out of order from worker
		// goroutines: serialise and drop regressions so a stale count
		// never prints over the final one.
		var mu sync.Mutex
		best := 0
		runner.Progress = func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done < best {
				return
			}
			best = done
			fmt.Fprintf(os.Stderr, "\r%d/%d replications", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
				best = 0 // next batch counts from zero again
			}
		}
	}
	ran := false
	for _, f := range figures {
		if f.name == *figFlag || *figFlag == "all" && f.inAll {
			f.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figFlag)
		os.Exit(2)
	}
}

// pick returns the full-resolution value, or the quick one under -quick.
func pick[T any](full, quick T) T {
	if *quickFlag {
		return quick
	}
	return full
}

// reps returns the replications per point: -reps when set, else the
// scenario default at the current resolution.
func reps(full, quick int) int {
	if *repsFlag > 0 {
		return *repsFlag
	}
	return pick(full, quick)
}

// bothAlgs is the comparison every figure makes: FD first, then GM.
var bothAlgs = []repro.Algorithm{repro.FD, repro.GM}

// throughputs returns the x-axis sweep of the latency-vs-throughput
// figures.
func throughputs() []float64 {
	return pick([]float64{10, 50, 100, 200, 300, 400, 500, 600, 650, 700},
		[]float64{10, 100, 300, 500, 650})
}

// steadyCfg builds a Config with durations scaled to gather a useful
// number of messages at throughput T.
func steadyCfg(alg repro.Algorithm, n int, thr float64) repro.Config {
	target := pick(600.0, 150.0) // messages per replication
	measure := min(max(time.Duration(target/thr*float64(time.Second)), 3*time.Second), 120*time.Second)
	return repro.Config{
		Algorithm:    alg,
		N:            n,
		Throughput:   thr,
		Seed:         *seedFlag,
		Warmup:       time.Second,
		Measure:      measure,
		Drain:        20 * time.Second,
		Replications: reps(3, 2),
	}
}

// crashTransient builds the crash-transient point of Fig. 8: the
// coordinator/sequencer p0 crashes at the instant sender p1 broadcasts,
// under detection time td.
func crashTransient(alg repro.Algorithm, n int, thr, td float64, reps int) repro.TransientConfig {
	return repro.TransientConfig{
		Config: repro.Config{
			Algorithm:    alg,
			N:            n,
			Throughput:   thr,
			QoS:          repro.Detectors(td, 0, 0),
			Seed:         *seedFlag,
			Warmup:       time.Second,
			Drain:        20 * time.Second,
			Replications: reps,
		},
		Crash:  0,
		Sender: 1,
	}
}

// cell formats one latency ± CI pair, or "unstable".
func cell(res repro.Result) string {
	if !res.Stable {
		return "unstable\tunstable"
	}
	return fmt.Sprintf("%.2f\t%.2f", res.Latency.Mean, res.Latency.CI95)
}

// pairRows runs the two configs pair(x) for every x value in one pool
// batch and prints an "x <cell> <cell>" row per x, then a blank line.
func pairRows(xs []float64, pair func(x float64) (a, b repro.Config)) {
	var cfgs []repro.Config
	for _, x := range xs {
		a, b := pair(x)
		cfgs = append(cfgs, a, b)
	}
	res := runner.SteadyAll(cfgs)
	for i, x := range xs {
		fmt.Printf("%.0f\t%s\t%s\n", x, cell(res[2*i]), cell(res[2*i+1]))
	}
	fmt.Println()
}

// algPair returns cfg under algorithm a and under algorithm b.
func algPair(cfg repro.Config, a, b repro.Algorithm) (repro.Config, repro.Config) {
	ca, cb := cfg, cfg
	ca.Algorithm, cb.Algorithm = a, b
	return ca, cb
}

// suspicionRows prints one suspicion-steady panel (Figs. 6, 7): FD and GM
// at n processes and throughput thr, one row per x under detector QoS qos(x).
func suspicionRows(n int, thr float64, xs []float64, qos func(x float64) repro.QoS) {
	pairRows(xs, func(x float64) (repro.Config, repro.Config) {
		cfg := steadyCfg(repro.FD, n, thr)
		cfg.QoS = qos(x)
		return algPair(cfg, repro.FD, repro.GM)
	})
}

func fig1() {
	fmt.Println("# Figure 1 check: identical failure-free message pattern (FD vs GM)")
	fmt.Println("# n\tthroughput(1/s)\tFD_wire_msgs\tGM_wire_msgs\tFD_lat(ms)\tGM_lat(ms)")
	for _, n := range []int{3, 7} {
		for _, thr := range []float64{10, 300} {
			counts := make(map[repro.Algorithm]uint64)
			lats := make(map[repro.Algorithm]float64)
			for _, alg := range bothAlgs {
				cfg := steadyCfg(alg, n, thr)
				cfg.Measure = 3 * time.Second
				cfg.Replications = 1
				res := runner.Steady(cfg)
				lats[alg] = res.PerMessage.Mean
				// Wire counts come from a dedicated cluster run with the
				// same arrivals.
				c := repro.NewCluster(repro.ClusterConfig{Algorithm: alg, N: n, Seed: *seedFlag})
				for i := 0; i < 20; i++ {
					c.BroadcastAt(i%n, time.Duration(i)*7*time.Millisecond, i)
				}
				c.Run(2 * time.Second)
				counts[alg] = c.Stats().WireSlots
			}
			fmt.Printf("%d\t%.0f\t%d\t%d\t%.4f\t%.4f\n",
				n, thr, counts[repro.FD], counts[repro.GM], lats[repro.FD], lats[repro.GM])
		}
	}
	fmt.Println()
}

func fig4() {
	for _, n := range []int{3, 7} {
		fmt.Printf("# Figure 4: latency vs throughput, normal-steady, n=%d\n", n)
		fmt.Println("# throughput(1/s)\tFD_lat(ms)\tFD_ci\tGM_lat(ms)\tGM_ci")
		pairRows(throughputs(), func(thr float64) (repro.Config, repro.Config) {
			return algPair(steadyCfg(repro.FD, n, thr), repro.FD, repro.GM)
		})
	}
}

func fig5() {
	panels := []struct {
		n       int
		crashes []int
	}{
		{3, []int{0, 1}},
		{7, []int{0, 1, 2, 3}},
	}
	for _, panel := range panels {
		fmt.Printf("# Figure 5: latency vs throughput, crash-steady, n=%d\n", panel.n)
		header := "# throughput(1/s)"
		for _, c := range panel.crashes {
			header += fmt.Sprintf("\tFD_%dcr\tci\tGM_%dcr\tci", c, c)
		}
		fmt.Println(header)
		thrs := throughputs()
		// One crash-set per curve: crash the highest PIDs — non-coordinator
		// processes, matching the paper's Fig. 5 presentation.
		sets := make([][]repro.ProcessID, len(panel.crashes))
		for i, crashes := range panel.crashes {
			for k := 0; k < crashes; k++ {
				sets[i] = append(sets[i], repro.ProcessID(panel.n-1-k))
			}
		}
		// Measure durations scale with throughput, so the grid is one
		// Algorithm × CrashSet sweep per throughput, batched into a single
		// pool run.
		var cfgs []repro.Config
		for _, thr := range thrs {
			cfgs = append(cfgs, repro.Sweep{
				Base:       steadyCfg(repro.FD, panel.n, thr),
				Algorithms: bothAlgs,
				CrashSets:  sets,
			}.Points()...)
		}
		res := runner.SteadyAll(cfgs)
		// Each throughput's block comes back in canonical sweep order:
		// all FD crash-sets, then all GM crash-sets.
		block := 2 * len(sets)
		for ti, thr := range thrs {
			row := fmt.Sprintf("%.0f", thr)
			for ci := range sets {
				row += "\t" + cell(res[ti*block+ci]) + "\t" + cell(res[ti*block+len(sets)+ci])
			}
			fmt.Println(row)
		}
		fmt.Println()
	}
}

func fig6() {
	tmrs := pick([]float64{1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 100000, 1000000},
		[]float64{10, 100, 1000, 10000, 1000000})
	for _, thr := range []float64{10, 300} {
		for _, n := range []int{3, 7} {
			fmt.Printf("# Figure 6: latency vs TMR, suspicion-steady, TM=0, n=%d, throughput=%.0f/s\n", n, thr)
			fmt.Println("# TMR(ms)\tFD_lat(ms)\tFD_ci\tGM_lat(ms)\tGM_ci")
			suspicionRows(n, thr, tmrs, func(tmr float64) repro.QoS { return repro.Detectors(0, tmr, 0) })
		}
	}
}

func fig7() {
	tms := pick([]float64{1, 3, 10, 30, 100, 300, 1000}, []float64{1, 10, 100, 1000})
	panels := []struct {
		n        int
		thr, tmr float64
	}{
		{3, 10, 1000}, {7, 10, 10000}, {3, 300, 10000}, {7, 300, 100000},
	}
	for _, panel := range panels {
		fmt.Printf("# Figure 7: latency vs TM, suspicion-steady, n=%d, throughput=%.0f/s, TMR=%.0fms\n",
			panel.n, panel.thr, panel.tmr)
		fmt.Println("# TM(ms)\tFD_lat(ms)\tFD_ci\tGM_lat(ms)\tGM_ci")
		suspicionRows(panel.n, panel.thr, tms, func(tm float64) repro.QoS {
			return repro.Detectors(0, panel.tmr, tm)
		})
	}
}

func fig8() {
	tds := []float64{0, 10, 100}
	thrs := throughputs()
	nreps := reps(10, 5)
	for _, n := range []int{3, 7} {
		fmt.Printf("# Figure 8: latency overhead (L - TD) vs throughput, crash-transient,\n")
		fmt.Printf("# crash of the coordinator/sequencer p0 at the broadcast instant, n=%d\n", n)
		header := "# throughput(1/s)"
		for _, td := range tds {
			header += fmt.Sprintf("\tFD_TD%.0f\tci\tGM_TD%.0f\tci", td, td)
		}
		fmt.Println(header)
		var cfgs []repro.TransientConfig
		for _, thr := range thrs {
			for _, td := range tds {
				for _, alg := range bothAlgs {
					cfgs = append(cfgs, crashTransient(alg, n, thr, td, nreps))
				}
			}
		}
		var results []repro.TransientResult
		if *quickFlag {
			// Quick mode measures the single pair (p0, p1): batch the
			// whole panel's grid through the pool.
			results = runner.TransientAll(cfgs)
		} else {
			// Full mode worst-cases each point over senders; each call
			// already fans its sender x replication grid out.
			for _, cfg := range cfgs {
				results = append(results, runner.WorstCaseTransient(cfg, false))
			}
		}
		for ti, thr := range thrs {
			row := fmt.Sprintf("%.0f", thr)
			for _, res := range results[ti*2*len(tds) : (ti+1)*2*len(tds)] {
				row += "\t" + cellAny(res.Overhead)
			}
			fmt.Println(row)
		}
		fmt.Println()
	}
}

func ablations() {
	// Ablation A: the §7 coordinator renumbering optimisation,
	// crash-steady with the round-1 coordinator long dead.
	fmt.Println("# Ablation A: FD coordinator renumbering, crash-steady with p0 crashed, n=3")
	fmt.Println("# throughput(1/s)\trenumber_on(ms)\tci\trenumber_off(ms)\tci")
	pairRows([]float64{10, 100, 300, 500}, func(thr float64) (repro.Config, repro.Config) {
		on := steadyCfg(repro.FD, 3, thr)
		on.Crashed = []repro.ProcessID{0}
		off := on
		off.DisableRenumber = true
		return on, off
	})

	// Ablation B: the §8 non-uniform sequencer variant — both GM variants
	// per throughput (measure durations depend on the throughput).
	fmt.Println("# Ablation B: GM uniform vs non-uniform (§8), normal-steady, n=3")
	fmt.Println("# throughput(1/s)\tuniform(ms)\tci\tnonuniform(ms)\tci")
	pairRows([]float64{10, 100, 300, 500, 700}, func(thr float64) (repro.Config, repro.Config) {
		return algPair(steadyCfg(repro.GM, 3, thr), repro.GM, repro.GMNonUniform)
	})

	// Ablation C: the λ parameter of the network model (§6.1) — a Lambdas
	// sweep. The DSN paper presents λ=1; the extended TR sweeps it.
	fmt.Println("# Ablation C: lambda sweep, normal-steady, n=3, throughput=100/s")
	fmt.Println("# lambda\tFD_lat(ms)\tci")
	lambdas := []float64{0.5, 1, 2, 4}
	resC := runner.Sweep(repro.Sweep{
		Base:    steadyCfg(repro.FD, 3, 100),
		Lambdas: lambdas,
	})
	for i, lambda := range lambdas {
		fmt.Printf("%.1f\t%s\n", lambda, cell(resC[i]))
	}
	fmt.Println()
}

// qcell formats one point's P50/P90/P99 columns, or "unstable".
func qcell(q repro.Quantiles, stable bool) string {
	if !stable || q.N == 0 {
		return "unstable\tunstable\tunstable"
	}
	return fmt.Sprintf("%.2f\t%.2f\t%.2f", q.P50, q.P90, q.P99)
}

// figDist emits the distribution view the mean-with-CI figures cannot
// show. Block D1 revisits the suspicion-steady scenario (Fig. 6) as
// quantiles with the early/late population split: most messages deliver
// at failure-free latency while wrong suspicions push a second
// population far out, and only the split makes that visible. Block D2
// revisits the crash-transient scenario (Fig. 8) as probe-latency
// quantiles over replications.
func figDist() {
	// D1: suspicion-steady quantiles. The first QoS entry is the
	// no-suspicion baseline; the early/late threshold is twice its median.
	tmrs := pick([]float64{30, 100, 300, 1000, 3000, 10000}, []float64{100, 1000, 10000})
	const n, thr = 3, 100.0
	fmt.Printf("# Figure D1: latency quantiles vs TMR, suspicion-steady, TM=0, n=%d, throughput=%.0f/s\n", n, thr)
	fmt.Println("# late% = share of messages above 2x the no-suspicion median latency")
	fmt.Println("# TMR(ms)\tFD_P50\tFD_P90\tFD_P99\tFD_late%\tGM_P50\tGM_P90\tGM_P99\tGM_late%")
	qos := []repro.QoS{{}} // baseline: no suspicions
	for _, tmr := range tmrs {
		qos = append(qos, repro.Detectors(0, tmr, 0))
	}
	res := runner.Sweep(repro.Sweep{
		Base:       steadyCfg(repro.FD, n, thr),
		Algorithms: bothAlgs,
		QoS:        qos,
	})
	lateCell := func(r repro.Result, threshold float64) string {
		if !r.Stable || r.Quantiles.N == 0 {
			return "unstable"
		}
		_, late := r.Dist.SplitAt(threshold)
		return fmt.Sprintf("%.1f", 100*float64(late.N())/float64(r.Quantiles.N))
	}
	fdThreshold := 2 * res[0].Quantiles.P50
	gmThreshold := 2 * res[len(qos)].Quantiles.P50
	for i, tmr := range tmrs {
		fd, gm := res[1+i], res[len(qos)+1+i]
		fmt.Printf("%.0f\t%s\t%s\t%s\t%s\n",
			tmr,
			qcell(fd.Quantiles, fd.Stable), lateCell(fd, fdThreshold),
			qcell(gm.Quantiles, gm.Stable), lateCell(gm, gmThreshold))
	}
	fmt.Println()

	// D2: crash-transient probe-latency quantiles over replications.
	thrs := []float64{10, 100, 300, 500}
	nreps := reps(10, 5)
	fmt.Printf("# Figure D2: crash-transient probe latency quantiles (Fig. 8 revisited),\n")
	fmt.Printf("# crash of coordinator/sequencer p0, sender p1, n=3, TD=10ms, %d replications\n", nreps)
	fmt.Println("# throughput(1/s)\tFD_P50\tFD_P90\tFD_P99\tGM_P50\tGM_P90\tGM_P99")
	var cfgs []repro.TransientConfig
	for _, thr := range thrs {
		for _, alg := range bothAlgs {
			cfgs = append(cfgs, crashTransient(alg, 3, thr, 10, nreps))
		}
	}
	tres := runner.TransientAll(cfgs)
	for i, thr := range thrs {
		fmt.Printf("%.0f\t%s\t%s\n", thr, qcell(tres[2*i].Quantiles, true), qcell(tres[2*i+1].Quantiles, true))
	}
	fmt.Println()
}

// figHeartbeat drives the concrete heartbeat failure detector through
// the Sweep Detector axis: the same workload under the abstract QoS
// model and under real heartbeat traffic that contends for the wire.
func figHeartbeat() {
	detectors := []*repro.HeartbeatConfig{
		nil, // abstract QoS model, perfect detector
		repro.HeartbeatDetector(10, 30),
		repro.HeartbeatDetector(20, 60),
	}
	names := []string{"qos-model", "hb-10/30ms", "hb-20/60ms"}
	thrs := []float64{10, 100, 300}
	fmt.Println("# Figure H: concrete heartbeat FD vs abstract QoS model, normal-steady, FD algorithm, n=3")
	fmt.Println("# heartbeats share the contended wire, so detection cost appears as added latency")
	fmt.Println("# throughput(1/s)\tdetector\tmean(ms)\tci\tP50\tP90\tP99")
	var cfgs []repro.Config
	for _, thr := range thrs {
		cfgs = append(cfgs, repro.Sweep{
			Base:      steadyCfg(repro.FD, 3, thr),
			Detectors: detectors,
		}.Points()...)
	}
	res := runner.SteadyAll(cfgs)
	for ti, thr := range thrs {
		for di, name := range names {
			r := res[ti*len(detectors)+di]
			fmt.Printf("%.0f\t%s\t%s\t%s\n", thr, name, cell(r), qcell(r.Quantiles, r.Stable))
		}
	}
	fmt.Println()
}

// planWarmup is the warmup of the plan-driven figures; their plans time
// events from the start of the run, so each offset adds it.
const planWarmup = time.Second

// planRows is the shared body of the plan-driven figures: both algorithms
// crossed with plans and loads at n processes under detector QoS qos,
// swept once per throughput. Each point prints one row — label(r) names
// its plans — with mean/CI/quantiles, the max latency when withMax is
// set, and the undelivered count; a blank line closes each throughput
// block.
func planRows(n int, qos repro.QoS, thrs []float64, plans []*repro.FaultPlan, loads []*repro.LoadPlan,
	withMax bool, label func(r repro.Result) string) {
	var cfgs []repro.Config
	for _, thr := range thrs {
		cfgs = append(cfgs, repro.Sweep{
			Base: repro.Config{
				Algorithm:    repro.FD,
				N:            n,
				Throughput:   thr,
				QoS:          qos,
				Seed:         *seedFlag,
				Warmup:       planWarmup,
				Measure:      5 * time.Second,
				Drain:        15 * time.Second,
				Replications: reps(3, 2),
			},
			Algorithms: bothAlgs,
			Plans:      plans,
			Loads:      loads,
		}.Points()...)
	}
	res := runner.SteadyAll(cfgs)
	block := len(res) / len(thrs)
	for i, r := range res {
		maxCol := ""
		if withMax {
			maxCol = fmt.Sprintf("\t%.4f", r.Quantiles.Max)
		}
		fmt.Printf("%.0f\t%v\t%s\t%s\t%s%s\t%d\n",
			r.Config.Throughput, r.Config.Algorithm, label(r),
			cellAny(r.Latency), qcell(r.Quantiles, r.Quantiles.N > 0), maxCol, r.Undelivered)
		if i%block == block-1 {
			// Blank line between throughput blocks for gnuplot indexing.
			fmt.Println()
		}
	}
}

// faultFigure runs both algorithms with and without a fault plan, the
// plan's points labelled name.
func faultFigure(n int, plan *repro.FaultPlan, name string) {
	fmt.Println("# throughput(1/s)\talg\tplan\tmean(ms)\tci\tP50\tP90\tP99\tundelivered")
	planRows(n, repro.Detectors(10, 0, 0), pick([]float64{10, 100, 300}, []float64{10, 100}),
		[]*repro.FaultPlan{nil, plan}, nil, false, func(r repro.Result) string {
			if r.Config.Plan != nil {
				return name
			}
			return "none"
		})
}

// figPartition drives both algorithms through a partition-and-heal
// FaultPlan: a majority/minority split opens mid-measurement and heals
// before it ends. The distributions separate the algorithms the way no
// failure-free figure can: the FD algorithm keeps serving the majority,
// catches the minority back up through decision-log catch-up after the
// heal, but loses the minority's own partition-era messages outright (no
// retransmission in its reliable broadcast), while the GM algorithm
// excludes the minority, welcomes it back through rejoin + state
// transfer, and recovers every message — at the price of a heavy late
// tail in the latency distribution.
func figPartition() {
	const n = 5
	plan := repro.NewFaultPlan().
		Partition(planWarmup+1500*time.Millisecond, []repro.ProcessID{0, 1, 2}, []repro.ProcessID{3, 4}).
		Heal(planWarmup + 3*time.Second)
	fmt.Printf("# Figure P: partition-and-heal, n=%d, groups {0 1 2}|{3 4}, split at +1.5s, healed at +3s of a 5s measure\n", n)
	fmt.Println("# FD keeps the majority running and loses the minority's partition-era messages;")
	fmt.Println("# GM excludes and rejoins the minority (state transfer) and delivers them late.")
	faultFigure(n, plan, "part+heal")
}

// figChurn drives both algorithms through a crash-recover-crash schedule
// of the coordinator/sequencer p0 — the paper's worst-case process. The
// GM algorithm pays a sequencer failover, then a rejoin with full state
// transfer, then a second failover; the crash-stop FD algorithm treats
// the recovery as the end of an outage and resumes the process with its
// state intact, closing its gap through decision-log catch-up (short
// gaps also close through ordinary decision forwarding).
func figChurn() {
	const n = 3
	plan := repro.NewFaultPlan().
		Crash(planWarmup+time.Second, 0).
		Recover(planWarmup+2500*time.Millisecond, 0).
		Crash(planWarmup+4*time.Second, 0)
	fmt.Println("# Figure C: churn of the coordinator/sequencer (crash p0 at +1s, recover at +2.5s,")
	fmt.Printf("# crash again at +4s of a 5s measure), n=%d, TD=10ms\n", n)
	fmt.Println("# GM pays sequencer failover + rejoin/state transfer; crash-stop FD resumes p0 in place.")
	faultFigure(n, plan, "churn")
}

// figOverload crosses a FaultPlan with a LoadPlan: a majority/minority
// partition opens mid-measurement and a global rate burst lands while
// the network is still split ("overload while partitioned"). The grid
// runs both algorithms through all four plan combinations — neither,
// partition only, burst only, both — so each effect and their
// interaction is separable. The latency tail is where the algorithms
// part: the FD algorithm serves the majority through both stresses and
// sheds the rest, while the GM algorithm pays for completeness with a
// tail that the overload compounds (the rejoining minority's state
// transfer now competes with the burst's backlog).
func figOverload() {
	const n = 5
	plan := repro.NewFaultPlan().
		Partition(planWarmup+1500*time.Millisecond, []repro.ProcessID{0, 1, 2}, []repro.ProcessID{3, 4}).
		Heal(planWarmup + 3*time.Second)
	load := repro.NewLoadPlan().
		Burst(planWarmup+2*time.Second, 1500*time.Millisecond, repro.AllSenders, 4)
	fmt.Printf("# Figure O: overload while partitioned, n=%d, groups {0 1 2}|{3 4} split +1.5s..+3s,\n", n)
	fmt.Println("# 4x global burst +2s..+3.5s of a 5s measure, TD=10ms; all four plan combinations.")
	fmt.Println("# throughput(1/s)\talg\tfaults\tload\tmean(ms)\tci\tP50\tP90\tP99\tmax\tundelivered")
	planRows(n, repro.Detectors(10, 0, 0), pick([]float64{10, 50, 100}, []float64{10, 50}),
		[]*repro.FaultPlan{nil, plan}, []*repro.LoadPlan{nil, load}, true, func(r repro.Result) string {
			faults, loadName := "none", "none"
			if r.Config.Plan != nil {
				faults = "partition"
			}
			if r.Config.Load != nil {
				loadName = "burst"
			}
			return faults + "\t" + loadName
		})
}

// figBurst measures recovery from a pure overload spike, no faults: a
// 10x global burst for 500ms mid-measurement. During the spike the
// offered load far exceeds the wire's capacity and a backlog builds;
// the figure reports how far the latency tail stretches (P99 and max —
// the max is reached by the last message to clear the backlog, so it
// reads as the recovery horizon) and whether everything was eventually
// delivered.
func figBurst() {
	const n = 3
	load := repro.NewLoadPlan().
		Burst(planWarmup+2*time.Second, 500*time.Millisecond, repro.AllSenders, 10)
	fmt.Printf("# Figure B: recovery from a 10x burst (500ms spike at +2s of a 5s measure), n=%d\n", n)
	fmt.Println("# max is the latency of the last message to clear the backlog: the recovery horizon.")
	fmt.Println("# throughput(1/s)\talg\tload\tmean(ms)\tci\tP50\tP90\tP99\tmax\tundelivered")
	planRows(n, repro.QoS{}, pick([]float64{10, 50, 100, 200}, []float64{10, 100}),
		nil, []*repro.LoadPlan{nil, load}, true, func(r repro.Result) string {
			if r.Config.Load != nil {
				return "burst-10x"
			}
			return "steady"
		})
}

// cellAny formats mean ± CI even for points with undelivered messages
// (the partition and churn figures report those honestly in their own
// column instead of suppressing the whole row), or "lost" when no
// sample survived.
func cellAny(s repro.Summary) string {
	if s.N == 0 {
		return "lost\tlost"
	}
	return fmt.Sprintf("%.2f\t%.2f", s.Mean, s.CI95)
}

// figSmoke runs five fixed pinned grids — the abstract QoS model vs the
// concrete heartbeat detector, a plan-driven partition-and-heal pair, a
// load-shaped burst-and-mute pair, a long-outage pair and a group-sharded
// triple — with the trace observer attached, and prints each
// replication's delivery digest plus each point's summary. Everything is
// pinned (seed, durations, grids), so the output is byte-stable across
// machines and lives in golden/figures_smoke.tsv; CI regenerates it and
// fails on any diff, then replays the trace. The -trace flag selects the
// trace file (default: discard).
func figSmoke() {
	var w io.Writer = io.Discard
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace file: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	tr := repro.NewTrace(w)
	base := repro.Config{
		Algorithm:    repro.FD,
		N:            3,
		Throughput:   50,
		Seed:         1,
		Warmup:       200 * time.Millisecond,
		Measure:      time.Second,
		Drain:        5 * time.Second,
		Replications: 2,
		Observers:    []repro.ObserverFactory{tr.Observer},
	}
	td := base // every grid after the first runs at TD=10ms
	td.QoS = repro.Detectors(10, 0, 0)
	outage := td
	outage.Measure = 1300 * time.Millisecond
	shards := td
	shards.CrossShard = 0.25
	grids := []struct {
		title string
		sweep repro.Sweep
	}{
		{"# Smoke grid: FD n=3 T=50/s seed=1, QoS model (point 0) vs heartbeat 10/30ms (point 1)", repro.Sweep{
			Base:      base,
			Detectors: []*repro.HeartbeatConfig{nil, repro.HeartbeatDetector(10, 30)},
		}},
		// One plan-driven point per algorithm — a partition-and-heal
		// mid-measure — exercising the FaultPlan path end to end, trace
		// record and replay included.
		{"# Plan grid: partition {0 1}|{2} at 600ms, heal at 900ms; FD (point 0) vs GM (point 1)", repro.Sweep{
			Base:       td,
			Algorithms: bothAlgs,
			Plans: []*repro.FaultPlan{repro.NewFaultPlan().
				Partition(600*time.Millisecond, []repro.ProcessID{0, 1}, []repro.ProcessID{2}).
				Heal(900 * time.Millisecond)},
		}},
		// One load-shaped point per algorithm — a 4x burst plus a
		// mute/unmute of sender 2 mid-measure — exercising the LoadPlan
		// path end to end, trace record and replay included.
		{"# Load grid: 4x burst 400..600ms + mute p2 600..900ms; FD (point 0) vs GM (point 1)", repro.Sweep{
			Base:       td,
			Algorithms: bothAlgs,
			Loads: []*repro.LoadPlan{repro.NewLoadPlan().
				Burst(400*time.Millisecond, 200*time.Millisecond, repro.AllSenders, 4).
				Mute(600*time.Millisecond, 2).
				Unmute(900*time.Millisecond, 2)},
		}},
		// A long outage — p2 down for a full second of dense traffic, far
		// more decisions than the FD consensus instance window retains —
		// exercising the decision-log catch-up path end to end (GM rides
		// the same plan through its rejoin machinery).
		{"# Outage grid: crash p2 at 300ms, recover at 1300ms, T=150/s; FD (point 0) vs GM (point 1)", repro.Sweep{
			Base:        outage,
			Algorithms:  bothAlgs,
			Throughputs: []float64{150},
			Plans: []*repro.FaultPlan{repro.NewFaultPlan().
				Crash(300*time.Millisecond, 2).
				Recover(1300*time.Millisecond, 2)},
		}},
		// The group-sharded ordering layer — one point per GroupMap across
		// the overlap spectrum (disjoint shards, finer shards, chained
		// bridges) at a fixed cross-shard mix — exercising group-addressed
		// dissemination, per-group protocol stacks and the cross-group
		// timestamp merge, trace record and replay included (the trace
		// header embeds each point's GroupMap spec).
		{"# Group grid: n=6 T=60/s cross-shard=0.25; disjoint/2 (point 0), disjoint/3 (point 1), chained/3 (point 2)", repro.Sweep{
			Base:        shards,
			Ns:          []int{6},
			Throughputs: []float64{60},
			GroupMaps:   []*repro.GroupMap{repro.Disjoint(6, 2), repro.Disjoint(6, 3), repro.Chained(6, 3)},
		}},
	}
	for gi, grid := range grids {
		res := runner.Sweep(grid.sweep)
		fmt.Println(grid.title)
		// The first grid predates the undelivered column.
		cols := "# point\tmean(ms)\tP50\tP90\tP99\tmessages"
		if gi > 0 {
			cols += "\tundelivered"
		}
		fmt.Println(cols)
		for i, r := range res {
			fmt.Printf("%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d", i,
				r.Latency.Mean, r.Quantiles.P50, r.Quantiles.P90, r.Quantiles.P99, r.Messages)
			if gi > 0 {
				fmt.Printf("\t%d", r.Undelivered)
			}
			fmt.Println()
		}
		fmt.Println("# point\trep\tdelivery_digest")
		for _, d := range tr.Digests() {
			fmt.Printf("%d\t%d\t%016x\n", d.Point, d.Rep, d.Digest)
		}
		if err := tr.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "trace flush: %v\n", err)
			os.Exit(1)
		}
	}
}

// replayTrace re-runs every replication of a trace file and verifies the
// delivery digests, exiting non-zero on any mismatch.
func replayTrace(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	results, err := repro.ReplayTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "replay: %v\n", err)
		os.Exit(1)
	}
	bad := 0
	for _, r := range results {
		status := "ok"
		if !r.Match {
			status = fmt.Sprintf("MISMATCH (recorded %016x, replayed %016x)", r.Recorded, r.Replayed)
			bad++
		}
		fmt.Printf("point %d rep %d: %s\n", r.Point, r.Rep, status)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "replay: %d of %d replications diverged\n", bad, len(results))
		os.Exit(1)
	}
	fmt.Printf("replayed %d replications, all digests match\n", len(results))
}
