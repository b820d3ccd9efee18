package experiment

import (
	"fmt"
	"time"

	"repro/internal/ctabcast"
	"repro/internal/fd"
	"repro/internal/gm"
	"repro/internal/groups"
	"repro/internal/hbfd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/seqabcast"
	"repro/internal/sim"
	"repro/internal/topo"
)

// CoreConfig parameterises the stack builder NewCore. Cluster builds
// every simulated system through it — every experiment replication and,
// through the type adapter in package repro, the interactive Cluster —
// so the per-process endpoint and recovery bookkeeping (heartbeat
// wrapping, GM rejoin incarnations, broadcast-sequence bases) lives in
// exactly one place.
//
// Callers pass already-validated, already-defaulted values: NewCore
// panics on malformed configuration only as a backstop, because the
// configuration is code, not input.
type CoreConfig struct {
	// Algorithm selects the protocol stack (FD, GM or GMNonUniform).
	Algorithm Algorithm
	// N is the number of processes.
	N int
	// Lambda is the network model's CPU/wire cost ratio (already
	// defaulted; 1 reproduces the paper).
	Lambda float64
	// Topology is the connectivity graph to route over; nil selects the
	// paper's full mesh on one shared wire.
	Topology *topo.Topology
	// Groups, if non-nil and non-trivial, shards the system: every group
	// runs its own protocol instance (over the topology subgraph its
	// members span) and messages are genuine atomic multicasts addressed
	// to destination groups, cross-ordered by timestamp merge. A trivial
	// map (one group covering everyone) is normalized to nil, keeping the
	// plain broadcast path bit-identical.
	Groups *groups.GroupMap
	// QoS parameterises the modelled failure detectors. NewCluster
	// silences it when a concrete Detector is configured; NewCore applies
	// whatever it receives.
	QoS fd.QoS
	// Detector, if non-nil, wraps every endpoint in the concrete
	// heartbeat failure detector of internal/hbfd.
	Detector *Heartbeat
	// Renumber enables the FD algorithm's coordinator renumbering.
	Renumber bool
	// Seed is the root seed of the run's random streams.
	Seed uint64
	// PreCrashed lists processes crashed long before the start, deduped,
	// in declaration order. They are excluded from the initial GM view
	// and PreCrash-ed before Start.
	PreCrashed []proto.PID
	// Deliver observes every A-delivery at every process; at is the
	// delivery instant. It must be non-nil.
	Deliver func(p proto.PID, id proto.MsgID, body any, at sim.Time)
	// OnView, if non-nil, observes view installations (GM algorithms
	// only).
	OnView func(p proto.PID, v gm.View, at sim.Time)
}

// Core is one assembled simulated system: engine, network, detectors and
// per-process protocol stacks. The exported slices are live state shared
// with the caller — SentBy in particular is incremented by the caller on
// every A-broadcast and read back by recovered GM incarnations as their
// ID-sequence base.
type Core struct {
	Eng *sim.Engine
	Sys *proto.System
	// Bcast[p] is process p's A-broadcast entry point; recovery refreshes
	// the entries of rebuilt incarnations in place.
	Bcast []func(body any) proto.MsgID
	// SentBy counts the A-broadcasts issued per process — callers
	// increment it; a recovered GM incarnation continues its ID sequence
	// from it.
	SentBy []uint64
	// Members lists the processes alive at start (everyone not
	// pre-crashed), ascending: the initial GM view and the workload's
	// senders.
	Members []proto.PID
	// Mcast is the destination-group-addressed multicast entry point,
	// non-nil only in groups mode: it initiates a genuine multicast from
	// p to the listed groups (sorted, unique) and returns its global id.
	Mcast func(p proto.PID, dests []int, body any) proto.MsgID
	// Coord is the group layer's coordinator, non-nil only in groups
	// mode.
	Coord *groups.Coordinator

	cfg CoreConfig
	// stacks[p] is process p's current stack incarnation (ungrouped mode
	// only): Recover and Healed restart its detector and arm its FD
	// catch-up probe.
	stacks []groups.Endpoint
}

// NewCore builds engine + network + detectors + algorithm stacks and
// starts the system. The construction order — engine, network
// configuration, root random stream, protocol system, per-process
// endpoints, pre-crashes, start — is observable through the forked
// random streams and must not be reordered: simulations are bit-for-bit
// reproductions of it.
func NewCore(cfg CoreConfig) *Core {
	if cfg.Deliver == nil {
		panic("experiment: NewCore requires a Deliver callback")
	}
	if cfg.Groups != nil && cfg.Groups.Trivial() {
		// One group covering everyone is plain atomic broadcast: use the
		// ungrouped path so the run is bit-identical to a nil map.
		cfg.Groups = nil
	}
	eng := sim.New()
	netCfg := netmodel.Config{
		N:        cfg.N,
		Lambda:   sim.Millis(cfg.Lambda),
		Slot:     time.Millisecond,
		Topology: cfg.Topology,
	}
	sys := proto.NewSystem(eng, netCfg, cfg.QoS, sim.NewRand(cfg.Seed))
	c := &Core{
		Eng:    eng,
		Sys:    sys,
		Bcast:  make([]func(any) proto.MsgID, cfg.N),
		SentBy: make([]uint64, cfg.N),
		cfg:    cfg,
	}

	pre := make([]bool, cfg.N)
	for _, p := range cfg.PreCrashed {
		pre[p] = true
	}
	for p := 0; p < cfg.N; p++ {
		if !pre[p] {
			c.Members = append(c.Members, proto.PID(p))
		}
	}

	if cfg.Groups != nil {
		c.buildGroups(sys, pre)
	} else {
		c.stacks = make([]groups.Endpoint, cfg.N)
		for p := 0; p < cfg.N; p++ {
			pid := proto.PID(p)
			sys.SetHandler(pid, c.endpoint(pid, sys.Proc(pid), false))
		}
	}
	for _, p := range cfg.PreCrashed {
		sys.PreCrash(p)
	}
	sys.Start()
	return c
}

// newStack builds one incarnation of cfg's protocol stack on rt: a
// ctabcast endpoint for FD or a seqabcast endpoint for the GM
// algorithms, wrapped in the heartbeat detector when cfg.Detector is
// set. gmCfg carries the delivery callback — the only part the FD stack
// uses — plus the GM stack's initial view, ID-sequence base and view
// observer. The ungrouped endpoints and every group instance are built
// here.
func newStack(cfg *CoreConfig, rt proto.Runtime, gmCfg seqabcast.Config) groups.Endpoint {
	var ep groups.Endpoint
	build := func(rt proto.Runtime) proto.Handler {
		switch cfg.Algorithm {
		case FD:
			proc := ctabcast.New(rt, ctabcast.Config{Deliver: gmCfg.Deliver, Renumber: cfg.Renumber})
			ep.ABroadcast, ep.Resume = proc.ABroadcast, proc.Resume
			return proc
		case GM, GMNonUniform:
			gmCfg.Uniform = cfg.Algorithm == GM
			proc := seqabcast.New(rt, gmCfg)
			ep.ABroadcast = proc.ABroadcast
			return proc
		default:
			panic(fmt.Sprintf("experiment: unknown algorithm %v", cfg.Algorithm))
		}
	}
	if hb := cfg.Detector; hb != nil {
		w := hbfd.Wrap(rt, hbfd.Config{Interval: hb.Interval, Timeout: hb.Timeout}, build)
		ep.Handler, ep.Restart = w, w.Restart
	} else {
		ep.Handler = build(rt)
	}
	return ep
}

// endpoint builds one ungrouped stack incarnation of process p on rt and
// records its entry points. rejoin marks a recovered GM incarnation: its
// initial view omits itself (so it starts excluded and rejoins through
// the membership service) and its message IDs continue the previous
// incarnations' sequence.
func (c *Core) endpoint(p proto.PID, rt proto.Runtime, rejoin bool) proto.Handler {
	cfg := &c.cfg
	gmCfg := seqabcast.Config{
		Deliver: func(id proto.MsgID, body any) {
			cfg.Deliver(p, id, body, c.Eng.Now())
		},
		InitialMembers: c.Members,
	}
	if rejoin {
		gmCfg.InitialMembers = withoutPID(c.Members, p)
		gmCfg.SeqBase = c.SentBy[p]
	}
	if cfg.OnView != nil {
		gmCfg.OnView = func(v gm.View) { cfg.OnView(p, v, c.Eng.Now()) }
	}
	ep := newStack(cfg, rt, gmCfg)
	c.stacks[p] = ep
	c.Bcast[p] = ep.ABroadcast
	return ep.Handler
}

// buildGroups assembles the groups-mode system: one groups.Router per
// process as the root handler, owning one protocol instance per group
// the process belongs to. Each instance is the stack newStack builds,
// running in the group's local id space, and the router's timestamp
// merge provides the cross-group total order. pre marks the
// pre-crashed processes.
func (c *Core) buildGroups(sys *proto.System, pre []bool) {
	cfg := &c.cfg
	factory := func(ic groups.InstanceConfig) groups.Endpoint {
		gmCfg := seqabcast.Config{
			Deliver:        func(_ proto.MsgID, body any) { ic.Deliver(body) },
			InitialMembers: ic.InitialLocal,
		}
		if cfg.OnView != nil {
			global := ic.Members[ic.Local]
			gmCfg.OnView = func(v gm.View) {
				// Report view members in global pids; the view id
				// sequence is the group's own.
				mapped := gm.View{ID: v.ID, Members: make([]proto.PID, len(v.Members))}
				for i, lq := range v.Members {
					mapped.Members[i] = ic.Members[lq]
				}
				cfg.OnView(global, mapped, c.Eng.Now())
			}
		}
		return newStack(cfg, ic.Runtime, gmCfg)
	}
	coord := groups.NewCoordinator(sys, cfg.Groups, pre, factory, cfg.Deliver)
	c.Coord = coord
	for p := 0; p < cfg.N; p++ {
		pid := proto.PID(p)
		r := coord.NewRouter(sys.Proc(pid))
		sys.SetHandler(pid, r)
		home := []int{cfg.Groups.Home(pid)}
		c.Bcast[p] = func(body any) proto.MsgID { return r.Multicast(home, body) }
	}
	c.Mcast = func(p proto.PID, dests []int, body any) proto.MsgID {
		return coord.Router(p).Multicast(dests, body)
	}
}

// Recover revives a crashed process, algorithm-aware: the GM algorithms
// model a true crash-recovery (a fresh incarnation starts excluded,
// rejoins through the membership service and catches up via state
// transfer), while the crash-stop FD algorithm models recovery as the
// end of a long outage — the process resumes with its state intact and
// closes its decision gap through decision-log catch-up (ctabcast's
// suffix transfer; Resume arms the probe). Either way the heartbeat
// detector, when configured, starts beating again. Recovering a live
// process is a no-op.
func (c *Core) Recover(p proto.PID) {
	if !c.Sys.Proc(p).Crashed() {
		return
	}
	if c.Coord != nil {
		// Groups mode: every group instance is an FD stack with its state
		// intact; restart the detector and arm each instance's catch-up
		// probe. The GM algorithms would need a per-group rejoin protocol,
		// which the group layer does not model — Validate rejects that
		// combination, so reaching here is a bug.
		if c.cfg.Algorithm != FD {
			panic("experiment: crash-recovery is unsupported for the GM algorithms in groups mode")
		}
		c.Sys.Recover(p, nil)
		c.Coord.Router(p).Recovered()
		return
	}
	if c.cfg.Algorithm == FD {
		c.Sys.Recover(p, nil)
		ep := c.stacks[p]
		if ep.Restart != nil {
			ep.Restart()
		}
		ep.Resume()
		return
	}
	c.Sys.Recover(p, func(rt proto.Runtime) proto.Handler {
		return c.endpoint(p, rt, true)
	})
}

// Healed arms the FD catch-up probe on every live process after a
// partition heal: a healed minority segment has missed the majority's
// decisions and must ask for the suffix — decision forwarding alone
// cannot unwedge it once the gap is real. The GM algorithms run their
// own staleness probe off the heal's trust edges, so this is a no-op
// for them. Probes on processes that were not behind disarm silently.
func (c *Core) Healed() {
	if c.cfg.Algorithm != FD {
		return
	}
	for p := 0; p < c.cfg.N; p++ {
		if c.Sys.Proc(proto.PID(p)).Crashed() {
			continue
		}
		if c.Coord != nil {
			c.Coord.Router(proto.PID(p)).Resumed()
		} else {
			c.stacks[p].Resume()
		}
	}
}

// withoutPID returns members minus p, freshly allocated.
func withoutPID(members []proto.PID, p proto.PID) []proto.PID {
	out := make([]proto.PID, 0, len(members))
	for _, m := range members {
		if m != p {
			out = append(out, m)
		}
	}
	return out
}
