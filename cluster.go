package repro

import (
	"fmt"
	"time"

	"repro/internal/experiment"
	"repro/internal/fd"
	"repro/internal/gm"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Delivery reports one A-delivery observed at one process.
type Delivery struct {
	Process int
	ID      MessageID
	Body    any
	At      time.Duration // virtual time since simulation start
}

// ViewInfo reports one membership view entered by a process (GM
// algorithms only).
type ViewInfo struct {
	Process int
	ViewID  uint64
	Members []int
	At      time.Duration
}

// NetEvent is a message lifecycle point in the network model, for traces.
type NetEvent struct {
	Stage   string // "send", "wire", "deliver", "drop"
	From    int
	To      int // -1 for the wire stage of multicasts
	Payload string
	At      time.Duration
}

// NetStats snapshots network activity counters.
type NetStats struct {
	Unicasts   uint64
	Multicasts uint64
	WireSlots  uint64
	Deliveries uint64
	// Lost counts message copies discarded by a partition or lossy link.
	Lost uint64
}

// ClusterConfig configures an interactive simulated cluster. NewCluster
// maps it onto a Config — PreCrashed is Config.Crashed, Heartbeat is
// Config.Detector, every other shared field carries over by name — and
// validates it with Config.Validate, so a cluster accepts exactly the
// settings an experiment point accepts: in particular fewer than half of
// the processes may be pre-crashed (f < n/2), and QoS is ignored when
// Heartbeat is set.
type ClusterConfig struct {
	// Algorithm selects the atomic broadcast (default FD).
	Algorithm Algorithm
	// N is the number of processes.
	N int
	// Lambda is the CPU/wire cost ratio of the network model (default 1,
	// the paper's setting).
	Lambda float64
	// QoS parameterises the failure detectors (default: perfect).
	QoS QoS
	// Seed makes the run reproducible (default 1).
	Seed uint64
	// PreCrashed lists processes crashed long before the start, fewer
	// than N/2 of them together with the plan's PreCrash events. It is a
	// constructor for those events — the two spellings produce
	// bit-identical runs.
	PreCrashed []int
	// Plan is a fault- and environment-injection timeline installed at
	// construction: crashes and recoveries, suspicion bursts, partitions
	// and heals, link faults. The interactive fault methods (CrashAt,
	// SuspectAt) schedule the same events through the same machinery.
	Plan *FaultPlan
	// Throughput, when positive, runs the paper's Poisson workload on the
	// cluster: every non-pre-crashed process A-broadcasts nil bodies at
	// rate Throughput/N, exactly as experiments do. Zero starts the
	// sources silent — a Load plan's rate change can still raise them
	// mid-run.
	Throughput float64
	// Load is a workload-shaping timeline installed at construction: rate
	// changes, bursts, per-sender mutes, pauses, cross-shard mix changes.
	Load *LoadPlan
	// OnDeliver observes every A-delivery at every process.
	OnDeliver func(d Delivery)
	// OnView observes view installations (GM algorithms only).
	OnView func(v ViewInfo)
	// OnFault, if non-nil, observes every plan event at the instant it
	// applies.
	OnFault func(at time.Duration, ev PlanEvent)
	// OnLoad, if non-nil, observes every load event at the instant it
	// applies.
	OnLoad func(at time.Duration, ev LoadEvent)
	// Heartbeat, if non-nil, replaces the abstract QoS failure-detector
	// model with a concrete heartbeat detector whose messages share the
	// contended network (see internal/hbfd). QoS is then ignored.
	Heartbeat *HeartbeatConfig
	// Topology is the connectivity graph the network routes over: nil is
	// FullMesh(N), the paper's shared Ethernet. The topology's N must
	// equal the cluster's N.
	Topology *Topology
	// Groups, when non-nil, shards the ordering layer: each group runs
	// its own protocol stack, Broadcast addresses the sender's home group
	// and Multicast any destination set, with cross-group messages merged
	// into one total order at the destinations. A nil (or single-group)
	// map is bit-identical to the paper's one-group broadcast path.
	// Crash-recovery (Recover events) is supported in groups mode for the
	// FD algorithm only.
	Groups *GroupMap
	// CrossShard is the fraction of the built-in Poisson workload sent
	// cross-shard (home group plus one uniformly random other group);
	// the rest stays shard-local. Groups mode only; a Load plan's Mix
	// event changes it mid-run.
	CrossShard float64
}

// HeartbeatConfig tunes the concrete heartbeat failure detector: the
// Interval between heartbeats (default 10 ms) and the Timeout of silence
// before suspicion (default 3x Interval). It is the same type
// Config.Detector and Sweep.Detectors take, so one tuning value drives
// both the interactive Cluster and the experiment Runner.
type HeartbeatConfig = experiment.Heartbeat

// Cluster is an interactively driven simulated cluster running one of the
// paper's atomic broadcast algorithms. All methods must be called from a
// single goroutine; time only advances inside Run calls. It is a type
// adapter over the experiment harness's cluster: a scripted session and
// a measured replication run the same construction, fault and load
// machinery.
//
// Faults — crashes, recoveries, wrong suspicions, partitions and heals,
// link loss and delay — are FaultPlan events: give a full timeline in
// ClusterConfig.Plan, or script crashes and suspicions interactively
// with CrashAt and SuspectAt, which schedule the same events through the
// same machinery. Load — the built-in Poisson workload's rate, bursts,
// mutes and pauses — is LoadPlan events: ClusterConfig.Throughput and
// Load at construction.
//
// In groups mode, crash-recovery (Recover plan events) is supported for
// the FD algorithm only; NewCluster rejects a GM-algorithm plan
// containing Recover events at construction.
type Cluster struct {
	x *experiment.Cluster
}

// NewCluster builds a cluster. It panics with an error on invalid
// configuration.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Algorithm == 0 {
		cfg.Algorithm = FD
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ecfg := experiment.Config{
		Algorithm:  cfg.Algorithm,
		N:          cfg.N,
		Throughput: cfg.Throughput,
		Lambda:     cfg.Lambda,
		Topology:   cfg.Topology,
		Groups:     cfg.Groups,
		CrossShard: cfg.CrossShard,
		QoS:        cfg.QoS,
		Detector:   cfg.Heartbeat,
		Plan:       cfg.Plan,
		Load:       cfg.Load,
		Seed:       cfg.Seed,
	}
	for _, p := range cfg.PreCrashed {
		ecfg.Crashed = append(ecfg.Crashed, proto.PID(p))
	}
	if err := ecfg.Validate(); err != nil {
		panic(err)
	}

	var onView func(p proto.PID, v gm.View, at sim.Time)
	if cfg.OnView != nil {
		onView = func(pid proto.PID, v gm.View, at sim.Time) {
			ms := make([]int, len(v.Members))
			for i, m := range v.Members {
				ms[i] = int(m)
			}
			cfg.OnView(ViewInfo{Process: int(pid), ViewID: v.ID, Members: ms, At: at.Duration()})
		}
	}
	x := experiment.NewCluster(ecfg, cfg.Seed, onView)
	if cfg.OnDeliver != nil {
		x.OnDeliver = func(pid proto.PID, id proto.MsgID, body any) {
			cfg.OnDeliver(Delivery{Process: int(pid), ID: id, Body: body, At: x.Eng.Now().Duration()})
		}
	}
	if cfg.OnFault != nil {
		x.OnPlanEvent = func(ev PlanEvent) { cfg.OnFault(x.Eng.Now().Duration(), ev) }
	}
	if cfg.OnLoad != nil {
		x.OnLoadEvent = func(ev LoadEvent) { cfg.OnLoad(x.Eng.Now().Duration(), ev) }
	}
	x.StartLoad(func(s int) { x.Submit(s, nil) })
	return &Cluster{x: x}
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.x.Eng.Now().Duration() }

// checkProc panics unless p names a process of the cluster.
func (c *Cluster) checkProc(p int) {
	if p < 0 || p >= c.x.Cfg.N {
		panic(fmt.Errorf("repro: process %d out of range for N=%d", p, c.x.Cfg.N))
	}
}

// Broadcast A-broadcasts body from process p at the current instant and
// returns the message ID.
func (c *Cluster) Broadcast(p int, body any) MessageID {
	c.checkProc(p)
	return c.x.Broadcast(p, body)
}

// BroadcastAt schedules an A-broadcast from process p at virtual time at.
func (c *Cluster) BroadcastAt(p int, at time.Duration, body any) {
	c.checkProc(p)
	c.x.Eng.Schedule(sim.Time(at), func() { c.x.Broadcast(p, body) })
}

// Multicast A-multicasts body from process p to the given destination
// groups at the current instant and returns the message ID: the genuine
// atomic multicast primitive, delivered exactly once at every live
// member of the destination groups in one total order. Groups mode only
// (ClusterConfig.Groups non-nil); destinations may come in any order.
func (c *Cluster) Multicast(p int, dests []int, body any) MessageID {
	c.checkProc(p)
	return c.x.Multicast(p, dests, body)
}

// MulticastAt schedules an A-multicast from process p to the given
// destination groups at virtual time at.
func (c *Cluster) MulticastAt(p int, at time.Duration, dests []int, body any) {
	c.checkProc(p)
	ds := append([]int(nil), dests...)
	c.x.Eng.Schedule(sim.Time(at), func() { c.x.Multicast(p, ds, body) })
}

// CrashAt schedules a crash of process p at virtual time at.
func (c *Cluster) CrashAt(p int, at time.Duration) {
	c.schedule(experiment.Crash{At: at, P: proto.PID(p)})
}

// SuspectAt schedules a wrong suspicion: monitor starts suspecting target
// at the given instant, for the given duration (0 is an instantaneous
// mistake whose edges still fire).
func (c *Cluster) SuspectAt(monitor, target int, at, duration time.Duration) {
	c.schedule(experiment.SuspicionBurst{At: at, P: proto.PID(target), For: duration, By: []ProcessID{proto.PID(monitor)}})
}

// schedule validates one fault-plan event and schedules it at its
// instant. It panics on an invalid event or one scheduled in the
// simulation's past.
func (c *Cluster) schedule(ev PlanEvent) {
	if err := (&FaultPlan{Events: []PlanEvent{ev}}).Validate(c.x.Cfg.N); err != nil {
		panic(err)
	}
	c.x.Faults.Schedule(ev)
}

// Run advances virtual time by d, processing all events on the way.
func (c *Cluster) Run(d time.Duration) {
	c.x.Eng.RunUntil(c.x.Eng.Now().Add(d))
}

// RunUntilIdle processes events until none remain. A cluster whose
// Poisson workload is active never idles — it keeps scheduling arrivals
// forever — so end the workload with a Pause (or a zero rate) in
// ClusterConfig.Load before draining with this method; use Run to
// advance a live workload by a bounded amount instead.
func (c *Cluster) RunUntilIdle() { c.x.Eng.Run() }

// Crashed reports whether process p has crashed.
func (c *Cluster) Crashed(p int) bool { return c.x.Sys.Proc(proto.PID(p)).Crashed() }

// Stats snapshots network activity so far.
func (c *Cluster) Stats() NetStats {
	counters := c.x.Sys.Net.Counters()
	return NetStats{
		Unicasts:   counters.Unicasts,
		Multicasts: counters.Multicasts,
		WireSlots:  counters.WireSlots,
		Deliveries: counters.Deliveries,
		Lost:       counters.Lost,
	}
}

// SetTrace installs a network-level observer (nil removes it). Useful for
// printing Fig. 1-style message diagrams; see examples/trace.
func (c *Cluster) SetTrace(fn func(NetEvent)) {
	if fn == nil {
		c.x.Sys.Net.SetTrace(nil)
		return
	}
	c.x.Sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		fn(NetEvent{
			Stage:   ev.Kind.String(),
			From:    ev.From,
			To:      ev.To,
			Payload: netmodel.PayloadName(ev.Payload),
			At:      ev.At.Duration(),
		})
	})
}

// Detectors returns a QoS with the given metrics in milliseconds, the
// unit the paper uses throughout.
func Detectors(tdMs, tmrMs, tmMs float64) QoS {
	return fd.QoS{TD: milliseconds(tdMs), TMR: milliseconds(tmrMs), TM: milliseconds(tmMs)}
}
