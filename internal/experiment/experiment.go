// Package experiment implements the paper's benchmark methodology (§5):
// repeatable scenarios specifying the workload, the occurrence of crashes
// and suspicions, and the latency metric, with failure detectors described
// only by their QoS parameters.
//
// Latency of one atomic broadcast is the time from A-broadcast(m) to the
// earliest A-delivery of m on any process (§5.1). A run reports the mean
// over many messages; an experiment aggregates several independent
// replications into a mean with a 95% confidence interval — the error
// bars of every figure in §7.
//
// The four scenarios:
//
//   - normal-steady: no crashes, no suspicions (Fig. 4);
//   - crash-steady: some processes crashed long before the measurement —
//     failure detectors suspect them from the start and the GM view never
//     contained them (Fig. 5);
//   - suspicion-steady: no crashes, wrong suspicions at QoS (TMR, TM)
//     (Figs. 6 and 7);
//   - crash-transient: a forced crash of one process with a probe message
//     A-broadcast at the crash instant; the metric is the probe's latency,
//     worst-cased over the crashed/sender pair (Fig. 8).
//
// Every replication is its own single-threaded simulation. Parallelism
// exists only across replications: Runner.Workers fans the (point,
// replication) grid out over a worker pool, which changes no bit of
// output.
package experiment

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/fd"
	"repro/internal/gm"
	"repro/internal/groups"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Algorithm selects which atomic broadcast runs.
type Algorithm int

// The algorithms under comparison.
const (
	// FD is the Chandra–Toueg atomic broadcast on unreliable failure
	// detectors (§4.1).
	FD Algorithm = iota + 1
	// GM is the fixed-sequencer atomic broadcast on group membership
	// (§4.2), uniform variant.
	GM
	// GMNonUniform is the two-multicast non-uniform variant (§8).
	GMNonUniform
)

// String returns the short name used in figure legends.
func (a Algorithm) String() string {
	switch a {
	case FD:
		return "FD"
	case GM:
		return "GM"
	case GMNonUniform:
		return "GM-nu"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config describes one experiment point.
type Config struct {
	// Algorithm selects the protocol under test.
	Algorithm Algorithm
	// N is the number of processes (the paper uses 3 and 7).
	N int
	// Throughput is the overall nominal A-broadcast rate in messages per
	// second; each process sends at Throughput/N.
	Throughput float64
	// Lambda is the network model's CPU/wire cost ratio; zero selects
	// λ = 1, the value of every figure in the DSN paper.
	Lambda float64
	// Topology is the connectivity graph the network routes over: nil
	// selects the paper's model, a full mesh on one shared wire
	// (topo.FullMesh(N)), bit-identical to the pre-topology stack. Any
	// other graph — ring, clique, star, a geo-replicated layout of
	// datacenter cliques joined by WAN links, or a hand-built Topology —
	// changes the routes, the contention domains and the per-wire
	// delay/loss while every other axis (plans, loads, detectors, ...)
	// composes unchanged. The topology's N must equal Config.N. Trace
	// headers embed it, so topology runs replay.
	Topology *topo.Topology
	// Groups, if non-nil and non-trivial, shards the system into groups
	// (possibly overlapping; see internal/groups): each group runs its
	// own protocol instance over its topology subgraph and the workload
	// becomes genuine atomic multicast — each broadcast is addressed to
	// the sender's home group, plus one other group with probability
	// CrossShard. Groups must cover exactly N processes and, with a
	// Topology, every group must be internally connected. A trivial map
	// (one group covering everyone) is normalized away and bit-identical
	// to nil. Trace headers embed the map, so grouped runs replay.
	Groups *groups.GroupMap
	// CrossShard is the fraction of generated broadcasts addressed to a
	// second group besides the sender's home group (groups mode only),
	// in [0, 1]. A ShardMix load event changes it mid-run.
	CrossShard float64
	// QoS parameterises the failure detectors (§6.2). Ignored when
	// Detector selects the concrete heartbeat implementation.
	QoS fd.QoS
	// Detector, if non-nil, replaces the abstract QoS failure-detector
	// model with the concrete heartbeat detector of internal/hbfd: every
	// process multicasts heartbeats through the same contended network as
	// protocol messages, so detection quality degrades with load instead
	// of following prescribed QoS metrics. The QoS field is then ignored
	// (the modelled detectors stay silent), which lets a Sweep cross a
	// QoS axis with a Detectors axis without invalid points.
	Detector *Heartbeat
	// Crashed lists pre-crashed processes (crash-steady): suspected from
	// the start, outside the initial GM view, sending nothing. It is a
	// constructor for the plan's PreCrash events — listing a process here
	// and planning PreCrash for it produce bit-identical runs.
	Crashed []proto.PID
	// Plan is the replication's fault- and environment-injection timeline:
	// crashes and recoveries, suspicion bursts, partitions and heals,
	// per-link loss and delay. Every scenario installs it through the same
	// machinery (see FaultPlan and Faults), and it composes with sweeps
	// via Sweep.Plans, with observers via PlanObserver, and with trace
	// export — trace headers embed the plan, so planned replications
	// replay. A nil plan is the fault-free timeline.
	Plan *FaultPlan
	// Load is the replication's workload-shaping timeline: rate changes
	// (global or per-sender), bursts, per-sender mutes, whole-workload
	// pauses. It is FaultPlan's load-side sibling and composes the same
	// way — Sweep.Loads crosses shaping schedules with every other axis
	// (Sweep.Plans included, so "overload while partitioned" is one grid
	// point), LoadObserver watches events apply, and trace headers embed
	// the plan for replay. A nil plan is the constant-rate workload.
	Load *LoadPlan
	// Renumber enables the FD algorithm's coordinator renumbering
	// optimisation (§7, crash-steady discussion). On by default through
	// DisableRenumber.
	DisableRenumber bool
	// Seed makes the experiment reproducible. Zero means seed 1.
	Seed uint64
	// Warmup is discarded virtual time before measurement starts.
	Warmup time.Duration
	// Measure is the virtual time window whose messages are measured.
	Measure time.Duration
	// Drain bounds how long after the measure window the run waits for
	// outstanding deliveries; messages still missing mark the point
	// unstable.
	Drain time.Duration
	// Replications is the number of independent runs aggregated into the
	// confidence interval. Zero selects 5.
	Replications int
	// Observers lists cross-cutting observer factories; the replication
	// engine builds one observer per replication from each and feeds it
	// the replication's events alongside the scenario. See Observer,
	// LatencyDist and Trace.
	Observers []ObserverFactory
	// DistSketch switches the per-point latency distributions
	// (Result.Dist, RepStats.Latencies, LatencyDist) from exact raw-value
	// retention to a mergeable streaming quantile sketch with relative
	// error at most DistSketch (see stats.Sketch): a huge point then
	// costs O(sketch) memory instead of O(messages). Mean, CI95 and the
	// extrema stay exact; quantiles carry the bound; Dist.Values becomes
	// nil. Zero (the default) keeps exact mode; values must lie in
	// [0, 1). Sketch-mode results remain bit-identical at any worker
	// count — bucket-count merges commute.
	DistSketch float64
	// transient carries the crash-transient parameters down to observers
	// when the runner executes the transient scenario, so a trace records
	// the replayable scenario kind. Set by Runner.TransientAll only.
	transient *transientInfo
}

// transientInfo is the crash-transient scenario's identity as seen by
// observers.
type transientInfo struct {
	crash, sender proto.PID
}

// Heartbeat tunes the concrete heartbeat failure detector selected by
// Config.Detector (see internal/hbfd).
type Heartbeat struct {
	// Interval between heartbeats. Zero selects 10 ms.
	Interval time.Duration
	// Timeout of silence before suspicion. Zero selects 3x Interval.
	Timeout time.Duration
}

// Defaults used when Config fields are zero.
const (
	DefaultWarmup       = 2 * time.Second
	DefaultMeasure      = 20 * time.Second
	DefaultDrain        = 30 * time.Second
	DefaultReplications = 5
)

func (c Config) withDefaults() Config {
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Warmup == 0 {
		c.Warmup = DefaultWarmup
	}
	if c.Measure == 0 {
		c.Measure = DefaultMeasure
	}
	if c.Drain == 0 {
		c.Drain = DefaultDrain
	}
	if c.Replications == 0 {
		c.Replications = DefaultReplications
	}
	return c
}

// Validate checks the configuration: every range, the topology, the
// fault and load plans, the groups map and the combinations they forbid,
// and the f < n/2 bound on pre-crashed processes. NewCluster assumes it
// passed; the Runner, Replay and repro.NewCluster call it once per
// configuration.
func (c Config) Validate() error {
	switch {
	case c.Algorithm < FD || c.Algorithm > GMNonUniform:
		return fmt.Errorf("experiment: unknown algorithm %d", int(c.Algorithm))
	case c.N < 1:
		return fmt.Errorf("experiment: N = %d", c.N)
	case c.Throughput < 0:
		return fmt.Errorf("experiment: negative throughput")
	case c.DistSketch < 0 || c.DistSketch >= 1:
		return fmt.Errorf("experiment: DistSketch = %v, want 0 (exact) or a relative error in (0, 1)", c.DistSketch)
	case c.Topology != nil && c.Topology.N != c.N:
		return fmt.Errorf("experiment: topology %q is for %d processes, config has N=%d", c.Topology.Name, c.Topology.N, c.N)
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	}
	if err := c.Plan.validate(c.N); err != nil {
		return err
	}
	if err := c.Load.validate(c.N); err != nil {
		return err
	}
	if c.Groups != nil {
		if err := c.Groups.Validate(c.N, c.Topology); err != nil {
			return err
		}
		if c.Algorithm != FD && !c.Groups.Trivial() && c.Plan.hasRecover() {
			return fmt.Errorf("experiment: crash-recovery is unsupported for the GM algorithms in groups mode (group instances have no per-group rejoin)")
		}
	}
	if c.CrossShard < 0 || c.CrossShard > 1 || c.CrossShard != c.CrossShard {
		return fmt.Errorf("experiment: CrossShard = %v, want a fraction in [0, 1]", c.CrossShard)
	}
	if c.Groups == nil || c.Groups.Trivial() {
		if c.CrossShard != 0 {
			return fmt.Errorf("experiment: CrossShard without a (non-trivial) Groups map")
		}
		if c.Load.hasShardMix() {
			return fmt.Errorf("experiment: load plan carries a shardmix event without a (non-trivial) Groups map")
		}
	}
	for _, p := range c.Crashed {
		if p < 0 || int(p) >= c.N {
			return fmt.Errorf("experiment: pre-crashed process %d out of range for N=%d", p, c.N)
		}
	}
	if pre := len(c.preCrashOrder()); pre >= (c.N+1)/2 {
		return fmt.Errorf("experiment: %d pre-crashes exceed the f < n/2 bound for n = %d", pre, c.N)
	}
	return nil
}

// newDistCollector returns an empty latency collector in the mode
// DistSketch selects: exact by default, sketch-backed when a relative
// error bound is configured.
func (c Config) newDistCollector() stats.Collector {
	if c.DistSketch > 0 {
		return stats.NewSketchCollector(c.DistSketch)
	}
	return stats.Collector{}
}

// preCrashOrder returns the processes crashed before the run starts —
// Config.Crashed first, then the plan's PreCrash events — in declaration
// order with duplicates dropped.
func (c Config) preCrashOrder() []proto.PID {
	out := make([]proto.PID, 0, len(c.Crashed))
	seen := make(map[proto.PID]bool, len(c.Crashed))
	for _, p := range c.Crashed {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range c.Plan.preCrashes() {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Result aggregates an experiment's replications.
type Result struct {
	Config Config
	// Latency is the distribution of replication means, in milliseconds:
	// its Mean and CI95 are what the paper plots.
	Latency stats.Summary
	// PerMessage pools every measured message across replications.
	PerMessage stats.Summary
	// Dist is the full pooled latency distribution behind PerMessage,
	// merged in canonical replication order: quantiles, histograms and
	// early/late splits of the same observations. It exposes the shape
	// that a mean with a confidence interval cannot — the crash and
	// suspicion scenarios' split into an early (failure-free latency) and
	// a late (detection- or view-change-delayed) population.
	Dist stats.Collector
	// Quantiles snapshots Dist's order statistics (P50/P90/P99).
	Quantiles stats.Quantiles
	// Messages is the total number of measured (delivered) messages.
	Messages int
	// Undelivered counts measured messages never delivered within the
	// drain window, across replications.
	Undelivered int
	// Stable is false when messages were left undelivered — the regime
	// where the paper omits the GM curve.
	Stable bool
	// Diverged is true when a replication was aborted because its
	// undelivered backlog exceeded DivergenceBacklog: the offered load
	// plus failure handling exceeded the system's capacity.
	Diverged bool
}

// DivergenceBacklog is the undelivered-message backlog beyond which a
// steady-state run is declared divergent and aborted. Transient backlogs
// under legitimate load are orders of magnitude smaller.
const DivergenceBacklog = 2000

// Cluster is one simulated system running one algorithm: the Core
// (engine, network, detectors, per-process protocol stacks) plus the
// fault and load installers, the workload's destination mix, and the
// backlog accounting behind divergence detection. It is the only
// cluster: every experiment replication builds one, and repro.Cluster is
// a type adapter over one, so validation, pre-crash handling, fault and
// load installation and the groups-mode shard mix cannot differ between
// a scripted session and a measured replication.
type Cluster struct {
	*Core
	// Cfg is the configuration the cluster was built from.
	Cfg Config
	// Faults is the cluster's single fault-injection path: Cfg.Plan
	// installs through it and scripted faults fire through it.
	Faults *Faults
	// Loads is the cluster's single workload-shaping path, nil until
	// StartLoad installs the workload; Cfg.Load installs through it.
	Loads *Loads
	// OnDeliver, if non-nil, observes every A-delivery at every process.
	OnDeliver func(p proto.PID, id proto.MsgID, body any)
	// OnBroadcast, if non-nil, observes every A-broadcast issued through
	// Submit — the feed of BroadcastObservers.
	OnBroadcast func(sender proto.PID, id proto.MsgID)
	// OnPlanEvent, if non-nil, observes plan events as they apply.
	OnPlanEvent func(ev PlanEvent)
	// OnLoadEvent, if non-nil, observes load events as they apply.
	OnLoadEvent func(ev LoadEvent)

	seed uint64
	// broadcasts and deliveredAt0 are the backlog accounting used for
	// divergence detection: every broadcast issued through Submit versus
	// deliveries observed at process 0 (always alive in steady
	// scenarios: crash-steady crashes the highest PIDs). In groups mode
	// only multicasts whose destination groups contain p0 count — p0
	// never delivers the rest.
	broadcasts   int
	deliveredAt0 int
	// crossFrac and mixRng drive the groups-mode destination choice:
	// each workload message goes to the sender's home group, plus one
	// other group with probability crossFrac, drawn from the dedicated
	// "mix" stream (unused in broadcast mode, so a zero fraction consumes
	// no randomness and shard-local-only runs are insensitive to it).
	crossFrac float64
	mixRng    *sim.Rand
	mixDests  [2]int
}

// NewCluster builds engine + network + detectors + algorithm stacks
// through NewCore with the given seed as the root of every random
// stream, and installs cfg.Plan. cfg must have defaults applied and have
// passed Validate; callers validate once per configuration, not once per
// replication. onView, if non-nil, observes GM view installations.
func NewCluster(cfg Config, seed uint64, onView func(p proto.PID, v gm.View, at sim.Time)) *Cluster {
	qos := cfg.QoS
	if cfg.Detector != nil {
		// The concrete heartbeat detector replaces the abstract model:
		// silence the modelled detectors so QoS is genuinely ignored and a
		// Detector point is bit-identical whatever QoS it inherited.
		qos = fd.QoS{}
	}
	c := &Cluster{Cfg: cfg, seed: seed, crossFrac: cfg.CrossShard}
	c.Core = NewCore(CoreConfig{
		Algorithm:  cfg.Algorithm,
		N:          cfg.N,
		Lambda:     cfg.Lambda,
		Topology:   cfg.Topology,
		Groups:     cfg.Groups,
		QoS:        qos,
		Detector:   cfg.Detector,
		Renumber:   !cfg.DisableRenumber,
		Seed:       seed,
		PreCrashed: cfg.preCrashOrder(),
		Deliver: func(pid proto.PID, id proto.MsgID, body any, at sim.Time) {
			if pid == 0 {
				c.deliveredAt0++
			}
			if c.OnDeliver != nil {
				c.OnDeliver(pid, id, body)
			}
		},
		OnView: onView,
	})
	if c.Coord != nil {
		c.mixRng = sim.NewRand(seed).Fork("mix")
	}
	c.Faults = &Faults{
		Sys:     c.Sys,
		Recover: c.Recover,
		Healed:  c.Healed,
		OnEvent: func(ev PlanEvent) {
			if c.OnPlanEvent != nil {
				c.OnPlanEvent(ev)
			}
		},
	}
	c.Faults.Install(cfg.Plan)
	return c
}

// StartLoad installs the Poisson workload — one source per process alive
// at start (Core.Members) at rate Cfg.Throughput/N, possibly zero —
// on the seed's "load" stream, and the Loads installer that Cfg.Load
// (and, through it, every load event) acts on. fire receives each
// arrival's sender. Processes crashed by plan events keep their source;
// Submit drops its firings while they are down.
func (c *Cluster) StartLoad(fire func(sender int)) {
	senders := make([]int, len(c.Members))
	for i, p := range c.Members {
		senders[i] = int(p)
	}
	c.Loads = NewSpreadLoads(c.Eng, sim.NewRand(c.seed).Fork("load"), c.Cfg.Throughput, c.Cfg.N, senders, fire)
	c.Loads.OnEvent = func(ev LoadEvent) {
		if c.OnLoadEvent != nil {
			c.OnLoadEvent(ev)
		}
	}
	if c.Coord != nil {
		c.Loads.OnShardMix = func(fraction float64) { c.crossFrac = fraction }
	}
	c.Loads.Install(c.Cfg.Load)
}

// Submit issues one workload message from sender — an A-broadcast, or in
// groups mode an A-multicast to the sender's home group plus, with
// probability crossFrac, one uniformly drawn other group — and maintains
// the backlog accounting. A crashed sender generates no load: the zero
// MsgID is returned and nothing is counted (a message ID's Seq is always
// >= 1, so the zero ID is unambiguous).
func (c *Cluster) Submit(sender int, body any) proto.MsgID {
	if c.Sys.Proc(proto.PID(sender)).Crashed() {
		return proto.MsgID{}
	}
	var dests []int
	if c.Coord != nil {
		m := c.Coord.Map()
		dests = c.mixedDests(m, sender)
		for _, g := range dests {
			if m.Contains(g, 0) {
				c.broadcasts++
				break
			}
		}
	} else {
		c.broadcasts++
	}
	id := c.send(sender, dests, body)
	if c.OnBroadcast != nil {
		c.OnBroadcast(proto.PID(sender), id)
	}
	return id
}

// mixedDests draws a workload message's destination groups: the home
// group of sender, plus one uniformly drawn other group with probability
// crossFrac, ascending.
func (c *Cluster) mixedDests(m *groups.GroupMap, sender int) []int {
	home := m.Home(proto.PID(sender))
	dests := c.mixDests[:1]
	dests[0] = home
	if c.crossFrac > 0 && m.NumGroups() > 1 && c.mixRng.Float64() < c.crossFrac {
		other := c.mixRng.Intn(m.NumGroups() - 1)
		if other >= home {
			other++
		}
		if other < home {
			dests = append(dests[:0], other, home)
		} else {
			dests = append(dests, other)
		}
	}
	return dests
}

// Broadcast A-broadcasts body from p (in groups mode: to p's home group)
// and returns the message ID. Unlike Submit it neither checks for a
// crash nor counts toward the backlog: it is the explicit primitive of
// scripted sessions.
func (c *Cluster) Broadcast(p int, body any) proto.MsgID { return c.send(p, nil, body) }

// Multicast A-multicasts body from p to the destination groups, given
// in any order (groups mode only), and returns the message ID. Like
// Broadcast it is an explicit primitive, outside the backlog accounting.
func (c *Cluster) Multicast(p int, dests []int, body any) proto.MsgID {
	if c.Coord == nil {
		panic(errors.New("experiment: Multicast needs a multi-group Groups map"))
	}
	ds := append([]int(nil), dests...)
	sort.Ints(ds)
	return c.send(p, ds, body)
}

// send issues one A-broadcast (nil dests) or A-multicast from p and
// counts it in SentBy, the ID-sequence base a recovered GM incarnation
// continues from.
func (c *Cluster) send(p int, dests []int, body any) proto.MsgID {
	c.SentBy[p]++
	if dests == nil {
		return c.Bcast[p](body)
	}
	return c.Mcast(proto.PID(p), dests, body)
}

// backlog returns the number of broadcasts not yet delivered at p0.
func (c *Cluster) backlog() int { return c.broadcasts - c.deliveredAt0 }

// repSeed derives the seed of one replication.
func repSeed(base uint64, rep int) uint64 {
	r := sim.NewRand(base)
	return r.ForkN(rep).Uint64()
}

// RunSteady executes a steady-state experiment (normal-steady,
// crash-steady or suspicion-steady, depending on Config.Crashed and
// Config.QoS). It is a thin wrapper over a zero-value Runner, so
// replications run in parallel on GOMAXPROCS workers; the result is
// bit-identical to a serial run.
func RunSteady(cfg Config) Result {
	var r Runner
	return r.Steady(cfg)
}

// TransientConfig extends Config for the crash-transient scenario.
type TransientConfig struct {
	Config
	// Crash is the process forced to crash (the paper presents the worst
	// case: the coordinator/sequencer, process 0).
	Crash proto.PID
	// Sender is the process whose probe message is measured. It must
	// differ from Crash.
	Sender proto.PID
}

// Validate checks the embedded Config and the crash/sender pair: both
// must name processes of the system, and they must differ.
func (c TransientConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	switch {
	case c.Crash < 0 || int(c.Crash) >= c.N:
		return fmt.Errorf("experiment: crash-transient crashed process %d out of range for N=%d", c.Crash, c.N)
	case c.Sender < 0 || int(c.Sender) >= c.N:
		return fmt.Errorf("experiment: crash-transient sender %d out of range for N=%d", c.Sender, c.N)
	case c.Crash == c.Sender:
		return fmt.Errorf("experiment: crash-transient sender must differ from the crashed process %d", c.Crash)
	}
	return nil
}

// TransientResult reports the crash-transient latency L(p, q).
type TransientResult struct {
	Config TransientConfig
	// Latency is the probe latency distribution over replications (ms).
	Latency stats.Summary
	// Overhead is Latency minus the detection time TD, the quantity
	// Fig. 8 plots.
	Overhead stats.Summary
	// Dist is the probe latency distribution across replications, merged
	// in canonical replication order (ms).
	Dist stats.Collector
	// Quantiles snapshots Dist's order statistics (P50/P90/P99).
	Quantiles stats.Quantiles
	// Lost counts replications whose probe was never delivered.
	Lost int
}

// RunTransient measures L(p, q): the latency of a message A-broadcast by
// Sender at the exact instant Crash crashes, after the system reached a
// steady state under background load. It is a thin wrapper over a
// zero-value Runner.
func RunTransient(cfg TransientConfig) TransientResult {
	var r Runner
	return r.Transient(cfg)
}

// WorstCaseTransient evaluates L(p, q) over every sender q for the given
// crashed process and returns the maximum mean — the paper's
// Lcrash = max L(p, q) restricted to the presented worst case p (the
// coordinator/sequencer). Set sweepCrash to also maximise over p. The
// whole crash × sender grid runs through a zero-value Runner's pool.
func WorstCaseTransient(cfg TransientConfig, sweepCrash bool) TransientResult {
	var r Runner
	return r.WorstCaseTransient(cfg, sweepCrash)
}
