package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fd"
	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Runner executes experiments, fanning independent replications out over
// a bounded worker pool. Every replication is a self-contained
// deterministic simulation keyed by (point, replication seed), and
// results are merged in canonical (point, replication) order, so a
// Runner's output is bit-identical to the serial path regardless of the
// worker count. The zero value runs with GOMAXPROCS workers.
type Runner struct {
	// Workers bounds concurrent replications: 0 selects GOMAXPROCS, 1 is
	// fully serial.
	Workers int
	// Progress, if non-nil, is called after each completed replication
	// with the number of finished and total replications of the current
	// call. It may be invoked concurrently from worker goroutines.
	Progress func(done, total int)
}

// workers resolves the effective pool size for n jobs.
func (r *Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// runJobs executes n independent jobs, indices 0..n-1, on the pool.
func (r *Runner) runJobs(n int, job func(i int)) {
	if n == 0 {
		return
	}
	if r.workers(n) == 1 {
		for i := 0; i < n; i++ {
			job(i)
			if r.Progress != nil {
				r.Progress(i+1, n)
			}
		}
		return
	}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < r.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
				if r.Progress != nil {
					r.Progress(int(done.Add(1)), n)
				}
			}
		}()
	}
	wg.Wait()
}

// runGrid fans a (point, replication) grid out over the pool:
// replications[i] jobs for point i, in canonical (point, replication)
// order.
func (r *Runner) runGrid(replications []int, run func(point, rep int)) {
	type job struct{ point, rep int }
	var jobs []job
	for i, n := range replications {
		for rep := 0; rep < n; rep++ {
			jobs = append(jobs, job{i, rep})
		}
	}
	r.runJobs(len(jobs), func(k int) { run(jobs[k].point, jobs[k].rep) })
}

// Steady runs one steady-state experiment point, replications in
// parallel.
func (r *Runner) Steady(cfg Config) Result {
	return r.SteadyAll([]Config{cfg})[0]
}

// SteadyAll runs several steady-state points at once, fanning every
// (point, replication) pair out over the pool. Results come back in
// point order and are identical to running each point serially.
func (r *Runner) SteadyAll(cfgs []Config) []Result {
	pts := make([]Config, len(cfgs))
	counts := make([]int, len(cfgs))
	reps := make([][]RepStats, len(cfgs))
	for i, cfg := range cfgs {
		cfg = cfg.withDefaults()
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
		pts[i] = cfg
		counts[i] = cfg.Replications
		reps[i] = make([]RepStats, cfg.Replications)
	}
	r.runGrid(counts, func(point, rep int) {
		reps[point][rep] = runReplication(pts[point], point, rep, newSteadyScenario(pts[point]))
	})
	out := make([]Result, len(pts))
	for i := range pts {
		out[i] = aggregateSteady(pts[i], reps[i])
	}
	return out
}

// Transient runs one crash-transient point, replications in parallel.
func (r *Runner) Transient(cfg TransientConfig) TransientResult {
	return r.TransientAll([]TransientConfig{cfg})[0]
}

// TransientAll runs several crash-transient points at once, fanning every
// (point, replication) pair out over the pool.
func (r *Runner) TransientAll(cfgs []TransientConfig) []TransientResult {
	pts := make([]TransientConfig, len(cfgs))
	counts := make([]int, len(cfgs))
	reps := make([][]RepStats, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Config = cfg.Config.withDefaults()
		if err := cfg.Validate(); err != nil {
			panic(err)
		}
		pts[i] = cfg
		counts[i] = cfg.Replications
		reps[i] = make([]RepStats, cfg.Replications)
	}
	r.runGrid(counts, func(point, rep int) {
		cfg := pts[point].Config
		cfg.transient = &transientInfo{crash: pts[point].Crash, sender: pts[point].Sender}
		reps[point][rep] = runReplication(cfg, point, rep, CrashTransient(pts[point]))
	})
	out := make([]TransientResult, len(pts))
	for i := range pts {
		out[i] = aggregateTransient(pts[i], reps[i])
	}
	return out
}

// WorstCaseTransient evaluates L(p, q) over every sender q for the given
// crashed process (and every p too when sweepCrash is set), running the
// whole grid's replications through the pool, and returns the maximum
// mean — the paper's Lcrash.
func (r *Runner) WorstCaseTransient(cfg TransientConfig, sweepCrash bool) TransientResult {
	crashes := []proto.PID{cfg.Crash}
	if sweepCrash {
		crashes = crashes[:0]
		for p := 0; p < cfg.N; p++ {
			crashes = append(crashes, proto.PID(p))
		}
	}
	var points []TransientConfig
	for _, crash := range crashes {
		for q := 0; q < cfg.N; q++ {
			if proto.PID(q) == crash {
				continue
			}
			point := cfg
			point.Crash = crash
			point.Sender = proto.PID(q)
			points = append(points, point)
		}
	}
	results := r.TransientAll(points)
	// Pick the maximum in canonical grid order, so ties resolve the same
	// way at any worker count.
	var worst TransientResult
	have := false
	for _, res := range results {
		if res.Latency.N == 0 {
			continue
		}
		if !have || res.Latency.Mean > worst.Latency.Mean {
			worst = res
			have = true
		}
	}
	return worst
}

// Sweep describes a grid of steady-state experiment points over
// Algorithm × N × Throughput × QoS × Lambda × Crashed × Detector × Plan
// × Load × Topology. Base
// supplies every other field; a nil axis inherits the Base value, so a
// Sweep with all axes nil is the single point Base. Observers attached
// to Base see every point of the grid, keyed by its canonical index.
type Sweep struct {
	// Base supplies every non-swept field.
	Base        Config
	Algorithms  []Algorithm
	Ns          []int
	Throughputs []float64
	QoS         []fd.QoS
	// Lambdas sweeps the network model's λ parameter (the §6.1 CPU/wire
	// cost ratio; the extended TR's ablation). A zero entry selects λ = 1,
	// as in Config.
	Lambdas []float64
	// CrashSets sweeps the crash-steady initial condition: each entry is
	// one Config.Crashed list (Fig. 5 varies the number of crashed
	// processes). A nil entry is the no-crash point.
	CrashSets [][]proto.PID
	// Detectors sweeps the failure-detector implementation: each entry is
	// one Config.Detector — a concrete heartbeat tuning, or nil for the
	// abstract QoS model. The axis compares the modelled detector with
	// real heartbeat traffic on the contended network at otherwise
	// identical points.
	Detectors []*Heartbeat
	// Plans sweeps the fault plan: each entry is one Config.Plan — a full
	// fault/environment timeline (crashes, recoveries, suspicion bursts,
	// partitions, link faults), or nil for the fault-free point. The axis
	// crosses whole failure schedules with every other dimension, e.g.
	// the same partition-and-heal timeline under both algorithms at
	// several throughputs.
	Plans []*FaultPlan
	// Loads sweeps the load plan: each entry is one Config.Load — a full
	// workload-shaping timeline (rate changes, bursts, mutes, pauses), or
	// nil for the constant-rate point. Crossed with Plans, one grid
	// expresses "the same burst under the same partition for both
	// algorithms at every throughput" — scenarios as data.
	Loads []*LoadPlan
	// Topologies sweeps the connectivity graph: each entry is one
	// Config.Topology — a generated or hand-built topo.Topology, or nil
	// for the paper's full mesh. Crossed with Plans and Loads, "a WAN
	// partition under an overload burst on a geo topology" is a single
	// grid point. Entries must match the point's N, so a grid sweeping
	// both Ns and Topologies should derive one from the other (build the
	// grid in two Sweeps, or fix N and vary only the graph).
	Topologies []*topo.Topology
	// GroupMaps sweeps the group assignment: each entry is one
	// Config.Groups — a generated or raw groups.GroupMap, or nil for the
	// ungrouped broadcast point. Crossed with Loads (ShardMix events) and
	// Throughputs, one grid walks shard-local scaling against group count
	// and cross-shard fraction. Entries must cover the point's N.
	GroupMaps []*groups.GroupMap
}

// Points expands the grid in canonical order: Algorithm outermost, then
// N, then Throughput, then QoS, then Lambda, then CrashSet, then
// Detector, then Plan, then Load, then Topology, then GroupMap
// innermost.
func (s Sweep) Points() []Config {
	algs := s.Algorithms
	if len(algs) == 0 {
		algs = []Algorithm{s.Base.Algorithm}
	}
	ns := s.Ns
	if len(ns) == 0 {
		ns = []int{s.Base.N}
	}
	thrs := s.Throughputs
	if len(thrs) == 0 {
		thrs = []float64{s.Base.Throughput}
	}
	qos := s.QoS
	if len(qos) == 0 {
		qos = []fd.QoS{s.Base.QoS}
	}
	lambdas := s.Lambdas
	if len(lambdas) == 0 {
		lambdas = []float64{s.Base.Lambda}
	}
	crashes := s.CrashSets
	if len(crashes) == 0 {
		crashes = [][]proto.PID{s.Base.Crashed}
	}
	dets := s.Detectors
	if len(dets) == 0 {
		dets = []*Heartbeat{s.Base.Detector}
	}
	plans := s.Plans
	if len(plans) == 0 {
		plans = []*FaultPlan{s.Base.Plan}
	}
	loads := s.Loads
	if len(loads) == 0 {
		loads = []*LoadPlan{s.Base.Load}
	}
	topos := s.Topologies
	if len(topos) == 0 {
		topos = []*topo.Topology{s.Base.Topology}
	}
	gmaps := s.GroupMaps
	if len(gmaps) == 0 {
		gmaps = []*groups.GroupMap{s.Base.Groups}
	}
	out := make([]Config, 0, len(algs)*len(ns)*len(thrs)*len(qos)*len(lambdas)*len(crashes)*len(dets)*len(plans)*len(loads)*len(topos)*len(gmaps))
	for _, a := range algs {
		for _, n := range ns {
			for _, t := range thrs {
				for _, q := range qos {
					for _, l := range lambdas {
						for _, cr := range crashes {
							for _, det := range dets {
								for _, plan := range plans {
									for _, load := range loads {
										for _, tp := range topos {
											for _, gmap := range gmaps {
												cfg := s.Base
												cfg.Algorithm, cfg.N, cfg.Throughput, cfg.QoS = a, n, t, q
												cfg.Lambda, cfg.Crashed, cfg.Detector, cfg.Plan = l, cr, det, plan
												cfg.Load, cfg.Topology, cfg.Groups = load, tp, gmap
												out = append(out, cfg)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// Sweep runs every point of the grid, fanning all (point, replication)
// pairs out over the pool, and returns results in Points order.
func (r *Runner) Sweep(s Sweep) []Result {
	return r.SteadyAll(s.Points())
}

// aggregateSteady merges one point's replications, in replication order,
// into the reported Result. The canonical merge order keeps every
// statistic — means, and now quantiles and histograms through Dist —
// bit-identical at any worker count.
func aggregateSteady(cfg Config, reps []RepStats) Result {
	var repMeans stats.Sample
	var pooled stats.Collector
	messages, undelivered := 0, 0
	diverged := false
	for i := range reps {
		rs := &reps[i]
		if rs.Diverged {
			diverged = true
		}
		undelivered += rs.Undelivered
		messages += rs.Latencies.N()
		if rs.Latencies.N() > 0 {
			repMeans.Add(rs.Latencies.Mean())
		}
		pooled.Merge(&rs.Latencies)
	}
	return Result{
		Config:      cfg,
		Latency:     repMeans.Summarize(),
		PerMessage:  pooled.Summarize(),
		Dist:        pooled,
		Quantiles:   pooled.Quantiles(),
		Messages:    messages,
		Undelivered: undelivered,
		Stable:      undelivered == 0 && messages > 0 && !diverged,
		Diverged:    diverged,
	}
}

// aggregateTransient merges one point's replications, in replication
// order, into the reported TransientResult.
func aggregateTransient(cfg TransientConfig, reps []RepStats) TransientResult {
	var lat stats.Collector
	var overhead stats.Sample
	lost := 0
	tdMs := float64(cfg.QoS.TD) / float64(time.Millisecond)
	for i := range reps {
		rs := &reps[i]
		if rs.Latencies.N() == 0 {
			lost++
			continue
		}
		l := rs.Latencies.Mean() // exactly one probe observation
		lat.Add(l)
		overhead.Add(l - tdMs)
	}
	return TransientResult{
		Config:    cfg,
		Latency:   lat.Summarize(),
		Overhead:  overhead.Summarize(),
		Dist:      lat,
		Quantiles: lat.Quantiles(),
		Lost:      lost,
	}
}
