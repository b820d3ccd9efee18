package repro

import (
	"fmt"
	"sort"
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

// ClusterConfig configures an interactive simulated cluster.
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
	// PreCrashed lists processes crashed long before the start. It is a
	// constructor for the plan's PreCrash events — the two spellings
	// produce bit-identical runs.
	PreCrashed []int
	// Plan is a fault- and environment-injection timeline installed at
	// construction: crashes and recoveries, suspicion bursts, partitions
	// and heals, link faults. The interactive fault methods (CrashAt,
	// SuspectAt, RecoverAt, PartitionAt, HealAt, SetLinkAt) schedule the
	// same events through the same machinery, so a scripted session and a
	// planned one are interchangeable.
	Plan *FaultPlan
	// Throughput, when positive, runs the paper's Poisson workload on the
	// cluster: every non-pre-crashed process A-broadcasts nil bodies at
	// rate Throughput/N, exactly as experiments do. Zero starts the
	// sources silent — the load methods (SetRateAt and friends) can still
	// raise them mid-run.
	Throughput float64
	// Load is a workload-shaping timeline installed at construction: rate
	// changes, bursts, per-sender mutes, pauses. The interactive load
	// methods (SetRateAt, BurstAt, MuteAt, UnmuteAt, PauseAt, ResumeAt)
	// schedule the same events through the same machinery.
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
	// contended network (see internal/hbfd). QoS should then be zero.
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
	// the rest stays shard-local. Groups mode only; ShardMixAt (or a
	// ShardMix load event) changes it mid-run.
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
// single goroutine; time only advances inside Run calls.
//
// Faults — crashes, recoveries, wrong suspicions, partitions and heals,
// link loss and delay — are FaultPlan events: give a full timeline in
// ClusterConfig.Plan, or script interactively with the *At methods and
// Apply, which schedule the same events through the same machinery.
// Load — the built-in Poisson workload's rate, bursts, mutes and pauses
// — is LoadPlan events the same way: ClusterConfig.Throughput and Load
// at construction, SetRateAt/BurstAt/MuteAt/UnmuteAt/PauseAt/ResumeAt
// and ApplyLoad interactively.
//
// In groups mode, crash-recovery (RecoverAt, Recover plan events) is
// supported for the FD algorithm only; NewCluster rejects a GM-algorithm
// plan containing Recover events at construction.
type Cluster struct {
	cfg   ClusterConfig
	eng   *sim.Engine
	sys   *proto.System
	bcast []func(body any) MessageID
	// core is the shared builder's assembled system; recovery (hbfd
	// restarts, GM rejoin incarnations) delegates to it.
	core   *experiment.Core
	faults *experiment.Faults
	loads  *experiment.Loads
	// sentBy counts A-broadcast calls per process: the ID-sequence base a
	// recovered GM incarnation continues from (Core.SentBy).
	sentBy []uint64
	// crossFrac/mixRng/mixDests drive the workload's shard-local vs
	// cross-shard mix in groups mode; mixRng is drawn only for mixing, so
	// a zero fraction is bit-identical to a pure shard-local workload.
	crossFrac float64
	mixRng    *sim.Rand
	mixDests  [2]int
}

// NewCluster builds a cluster. It panics on invalid configuration.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Algorithm == 0 {
		cfg.Algorithm = FD
	}
	if cfg.N < 1 {
		panic(fmt.Sprintf("repro: N = %d", cfg.N))
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if err := cfg.Plan.Validate(cfg.N); err != nil {
		panic(err)
	}
	if cfg.Topology != nil && cfg.Topology.N != cfg.N {
		panic(fmt.Sprintf("repro: topology %q is for %d processes, cluster has N=%d",
			cfg.Topology.Name, cfg.Topology.N, cfg.N))
	}
	if err := cfg.Load.Validate(cfg.N); err != nil {
		panic(err)
	}
	if cfg.Throughput < 0 {
		panic("repro: negative throughput")
	}
	if cfg.Groups != nil {
		if err := cfg.Groups.Validate(cfg.N, cfg.Topology); err != nil {
			panic(err)
		}
		if cfg.Groups.Trivial() {
			cfg.Groups = nil // single group covering everyone: the broadcast path
		}
	}
	if cfg.CrossShard < 0 || cfg.CrossShard > 1 || cfg.CrossShard != cfg.CrossShard {
		panic(fmt.Sprintf("repro: CrossShard = %v outside [0, 1]", cfg.CrossShard))
	}
	if cfg.Groups == nil {
		if cfg.CrossShard != 0 {
			panic("repro: CrossShard needs a multi-group ClusterConfig.Groups")
		}
		if cfg.Load != nil {
			for _, ev := range cfg.Load.Events {
				if _, ok := ev.(ShardMix); ok {
					panic("repro: a ShardMix load event needs a multi-group ClusterConfig.Groups")
				}
			}
		}
	} else if cfg.Algorithm != FD && cfg.Plan != nil {
		for _, ev := range cfg.Plan.Events {
			if _, ok := ev.(Recover); ok {
				panic("repro: crash-recovery is unsupported for the GM algorithms in groups mode")
			}
		}
	}
	// Pre-crashes: the PreCrashed list first, then the plan's PreCrash
	// events, duplicates dropped.
	var preOrder []proto.PID
	preCrashed := make(map[proto.PID]bool, len(cfg.PreCrashed))
	addPre := func(p proto.PID) {
		if int(p) < 0 || int(p) >= cfg.N {
			panic(fmt.Sprintf("repro: pre-crashed process %d out of range", p))
		}
		if !preCrashed[p] {
			preCrashed[p] = true
			preOrder = append(preOrder, p)
		}
	}
	for _, p := range cfg.PreCrashed {
		addPre(proto.PID(p))
	}
	if cfg.Plan != nil {
		for _, ev := range cfg.Plan.Events {
			if pre, ok := ev.(PreCrash); ok {
				addPre(pre.P)
			}
		}
	}

	c := &Cluster{cfg: cfg}
	var onView func(p proto.PID, v gm.View, at sim.Time)
	if cfg.OnView != nil {
		onView = func(pid proto.PID, v gm.View, at sim.Time) {
			ms := make([]int, len(v.Members))
			for i, m := range v.Members {
				ms[i] = int(m)
			}
			cfg.OnView(ViewInfo{
				Process: int(pid),
				ViewID:  v.ID,
				Members: ms,
				At:      at.Duration(),
			})
		}
	}
	c.core = experiment.NewCore(experiment.CoreConfig{
		Algorithm:  cfg.Algorithm,
		N:          cfg.N,
		Lambda:     cfg.Lambda,
		Topology:   cfg.Topology,
		QoS:        cfg.QoS,
		Detector:   cfg.Heartbeat,
		Renumber:   true,
		Seed:       cfg.Seed,
		PreCrashed: preOrder,
		Groups:     cfg.Groups,
		Deliver: func(pid proto.PID, id proto.MsgID, body any, at sim.Time) {
			if cfg.OnDeliver != nil {
				cfg.OnDeliver(Delivery{
					Process: int(pid),
					ID:      id,
					Body:    body,
					At:      at.Duration(),
				})
			}
		},
		OnView: onView,
	})
	eng := c.core.Eng
	c.eng = eng
	c.sys = c.core.Sys
	c.bcast = c.core.Bcast
	c.sentBy = c.core.SentBy
	c.faults = &experiment.Faults{
		Sys:     c.sys,
		Recover: c.core.Recover,
		Healed:  c.core.Healed,
		OnEvent: func(ev PlanEvent) {
			if cfg.OnFault != nil {
				cfg.OnFault(eng.Now().Duration(), ev)
			}
		},
	}
	if cfg.Plan != nil {
		c.faults.Install(cfg.Plan)
	}

	// The Poisson workload: one source per non-pre-crashed process at
	// rate Throughput/N (possibly zero, i.e. silent until a load event
	// raises it), on an independent random stream — mirroring the
	// experiment scenarios' Setup.
	senders := make([]int, 0, len(c.core.Members))
	for _, p := range c.core.Members {
		senders = append(senders, int(p))
	}
	c.loads = experiment.NewSpreadLoads(eng, sim.NewRand(cfg.Seed).Fork("load"),
		cfg.Throughput, cfg.N, senders, func(s int) {
			if c.sys.Proc(proto.PID(s)).Crashed() {
				return // crashed mid-run: no load generated
			}
			c.sentBy[s]++
			if c.cfg.Groups != nil {
				c.mixedMulticast(s, nil)
				return
			}
			c.bcast[s](nil)
		})
	if cfg.Groups != nil {
		c.crossFrac = cfg.CrossShard
		c.mixRng = sim.NewRand(cfg.Seed).Fork("mix")
		c.loads.OnShardMix = func(fraction float64) { c.crossFrac = fraction }
	}
	c.loads.OnEvent = func(ev LoadEvent) {
		if cfg.OnLoad != nil {
			cfg.OnLoad(eng.Now().Duration(), ev)
		}
	}
	if cfg.Load != nil {
		c.loads.Install(cfg.Load)
	}
	return c
}

// Now returns the current virtual time.
func (c *Cluster) Now() time.Duration { return c.eng.Now().Duration() }

// Broadcast A-broadcasts body from process p at the current instant and
// returns the message ID.
func (c *Cluster) Broadcast(p int, body any) MessageID {
	c.sentBy[p]++
	return c.bcast[p](body)
}

// BroadcastAt schedules an A-broadcast from process p at virtual time at.
func (c *Cluster) BroadcastAt(p int, at time.Duration, body any) {
	c.eng.Schedule(sim.Time(at), func() {
		c.sentBy[p]++
		c.bcast[p](body)
	})
}

// Multicast A-multicasts body from process p to the given destination
// groups at the current instant and returns the message ID: the genuine
// atomic multicast primitive, delivered exactly once at every live
// member of the destination groups in one total order. Groups mode only
// (ClusterConfig.Groups non-nil); destinations may come in any order.
func (c *Cluster) Multicast(p int, dests []int, body any) MessageID {
	c.sentBy[p]++
	return c.multicast(p, dests, body)
}

// MulticastAt schedules an A-multicast from process p to the given
// destination groups at virtual time at.
func (c *Cluster) MulticastAt(p int, at time.Duration, dests []int, body any) {
	ds := append([]int(nil), dests...)
	c.eng.Schedule(sim.Time(at), func() {
		c.sentBy[p]++
		c.multicast(p, ds, body)
	})
}

func (c *Cluster) multicast(p int, dests []int, body any) MessageID {
	if c.cfg.Groups == nil {
		panic("repro: Multicast needs a multi-group ClusterConfig.Groups")
	}
	ds := append([]int(nil), dests...)
	sort.Ints(ds)
	return c.core.Mcast(proto.PID(p), ds, body)
}

// mixedMulticast sends one workload message from s: shard-local to its
// home group, or — with probability crossFrac — to the home group plus
// one uniformly random other group (the experiment workload's mix).
func (c *Cluster) mixedMulticast(s int, body any) {
	m := c.cfg.Groups
	dests := c.mixDests[:1]
	home := m.Home(proto.PID(s))
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
	c.core.Mcast(proto.PID(s), dests, body)
}

// Apply schedules one fault-plan event at its instant — the primitive
// every *At fault method below is sugar for. It panics on an invalid
// event or one scheduled in the simulation's past.
func (c *Cluster) Apply(ev PlanEvent) {
	if _, pre := ev.(PreCrash); pre {
		panic("repro: PreCrash is an initial condition; list it in ClusterConfig")
	}
	if err := (&FaultPlan{Events: []PlanEvent{ev}}).Validate(c.cfg.N); err != nil {
		panic(err)
	}
	c.faults.Schedule(ev)
}

// CrashAt schedules a crash of process p at virtual time at.
func (c *Cluster) CrashAt(p int, at time.Duration) {
	c.Apply(Crash{At: at, P: proto.PID(p)})
}

// RecoverAt schedules a recovery of crashed process p at virtual time at:
// GM algorithms rejoin through the membership service with state
// transfer, the crash-stop FD algorithm resumes from its pre-crash state
// (see the Recover event).
func (c *Cluster) RecoverAt(p int, at time.Duration) {
	c.Apply(Recover{At: at, P: proto.PID(p)})
}

// SuspectAt schedules a wrong suspicion: monitor starts suspecting target
// at the given instant, for the given duration (0 is an instantaneous
// mistake whose edges still fire).
func (c *Cluster) SuspectAt(monitor, target int, at, duration time.Duration) {
	c.Apply(SuspicionBurst{At: at, P: proto.PID(target), For: duration, By: []ProcessID{proto.PID(monitor)}})
}

// PartitionAt schedules a network partition into the given groups at
// virtual time at; processes listed in no group are isolated alone.
func (c *Cluster) PartitionAt(at time.Duration, groups ...[]int) {
	ev := Partition{At: at, Groups: make([][]proto.PID, len(groups))}
	for gi, g := range groups {
		ev.Groups[gi] = make([]proto.PID, len(g))
		for i, p := range g {
			ev.Groups[gi][i] = proto.PID(p)
		}
	}
	c.Apply(ev)
}

// HealAt schedules the removal of the partition in force at virtual time
// at.
func (c *Cluster) HealAt(at time.Duration) {
	c.Apply(Heal{At: at})
}

// SetLinkAt schedules a fault on the directed link from → to at virtual
// time at: loss probability per message copy plus extra delay. Zero both
// to clear the link.
func (c *Cluster) SetLinkAt(at time.Duration, from, to int, loss float64, extraDelay time.Duration) {
	c.Apply(LinkFault{At: at, From: proto.PID(from), To: proto.PID(to), Loss: loss, ExtraDelay: extraDelay})
}

// ApplyLoad schedules one load-plan event at its instant — the primitive
// every load method below is sugar for. The cluster's Poisson sources
// exist whatever ClusterConfig.Throughput was (a zero throughput just
// starts them silent), so load events always have something to act on.
// It panics on an invalid event or one scheduled in the simulation's
// past.
func (c *Cluster) ApplyLoad(ev LoadEvent) {
	if err := (&LoadPlan{Events: []LoadEvent{ev}}).Validate(c.cfg.N); err != nil {
		panic(err)
	}
	c.loads.Schedule(ev)
}

// SetRateAt schedules a rate change at virtual time at: sender
// AllSenders (-1) re-spreads rate as a new total throughput (each
// process sends at rate/N), a concrete sender gets rate as its absolute
// per-second rate. The gap in flight rescales deterministically, so
// setting the current rate is a bit-identical no-op.
func (c *Cluster) SetRateAt(at time.Duration, sender int, rate float64) {
	c.ApplyLoad(RateChange{At: at, Sender: proto.PID(sender), Rate: rate})
}

// BurstAt schedules a rate spike: the rate of sender (AllSenders for
// everyone) is multiplied by factor during [at, at+d).
func (c *Cluster) BurstAt(at, d time.Duration, sender int, factor float64) {
	c.ApplyLoad(Burst{At: at, For: d, Sender: proto.PID(sender), Factor: factor})
}

// MuteAt schedules a mute of sender (AllSenders for everyone) at virtual
// time at: its source stops firing but keeps its logical rate and frozen
// gap for UnmuteAt.
func (c *Cluster) MuteAt(at time.Duration, sender int) {
	c.ApplyLoad(Mute{At: at, Sender: proto.PID(sender)})
}

// UnmuteAt schedules the lifting of a mute of sender at virtual time at.
func (c *Cluster) UnmuteAt(at time.Duration, sender int) {
	c.ApplyLoad(Unmute{At: at, Sender: proto.PID(sender)})
}

// ShardMixAt schedules a change of the built-in workload's cross-shard
// fraction at virtual time at (groups mode only): fraction of messages
// go cross-shard from then on, the rest stay shard-local.
func (c *Cluster) ShardMixAt(at time.Duration, fraction float64) {
	if c.cfg.Groups == nil {
		panic("repro: ShardMixAt needs a multi-group ClusterConfig.Groups")
	}
	c.ApplyLoad(ShardMix{At: at, Fraction: fraction})
}

// PauseAt schedules a pause of the whole workload at virtual time at.
func (c *Cluster) PauseAt(at time.Duration) { c.ApplyLoad(Pause{At: at}) }

// ResumeAt schedules the lifting of a pause at virtual time at; senders
// muted individually stay muted.
func (c *Cluster) ResumeAt(at time.Duration) { c.ApplyLoad(Resume{At: at}) }

// Run advances virtual time by d, processing all events on the way.
func (c *Cluster) Run(d time.Duration) {
	c.eng.RunUntil(c.eng.Now().Add(d))
}

// RunUntilIdle processes events until none remain. A cluster whose
// Poisson workload is active never idles — it keeps scheduling arrivals
// forever — so pause or silence the workload (PauseAt, SetRateAt with
// rate 0) before draining with this method; use Run to advance a live
// workload by a bounded amount instead.
func (c *Cluster) RunUntilIdle() { c.eng.Run() }

// Crashed reports whether process p has crashed.
func (c *Cluster) Crashed(p int) bool { return c.sys.Proc(proto.PID(p)).Crashed() }

// Stats snapshots network activity so far.
func (c *Cluster) Stats() NetStats {
	counters := c.sys.Net.Counters()
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
		c.sys.Net.SetTrace(nil)
		return
	}
	c.sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		fn(NetEvent{
			Stage:   ev.Kind.String(),
			From:    ev.From,
			To:      ev.To,
			Payload: netmodel.PayloadName(ev.Payload),
			At:      ev.At.Duration(),
		})
	})
}

// Perfect returns a QoS with instant detection and no mistakes.
func Perfect() QoS { return QoS{} }

// Detectors returns a QoS with the given metrics in milliseconds, the
// unit the paper uses throughout.
func Detectors(tdMs, tmrMs, tmMs float64) QoS {
	return fd.QoS{TD: Milliseconds(tdMs), TMR: Milliseconds(tmrMs), TM: Milliseconds(tmMs)}
}
