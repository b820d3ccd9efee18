package experiment

import (
	"time"

	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Delivery is one A-delivery observed by a scenario during a replication.
type Delivery struct {
	Process proto.PID
	ID      proto.MsgID
	At      sim.Time
}

// RepStats carries one replication's raw results back to the aggregator.
// Latencies are accumulated in canonical message order inside the
// replication, so merging replications in index order reproduces the
// serial path bit for bit.
type RepStats struct {
	// Latencies holds the replication's measured latencies in
	// milliseconds: one per delivered tracked message (steady scenarios)
	// or at most one probe latency (crash-transient). The collector
	// carries the full distribution, so aggregation reports quantiles and
	// histograms alongside the mean.
	Latencies stats.Collector
	// Undelivered counts awaited messages never delivered within the
	// drain window.
	Undelivered int
	// Diverged is set by the engine when the replication was aborted on a
	// backlog beyond DivergenceBacklog.
	Diverged bool
}

// phases describes the temporal structure of one replication: a measure
// phase up to measureEnd, then a drain phase of at most drain. The slice
// durations set how often the engine pauses the simulation to check for
// divergence (measure) and early completion (drain).
type phases struct {
	measureEnd   sim.Time
	drain        time.Duration
	measureSlice time.Duration
	drainSlice   time.Duration
	// divergence enables the DivergenceBacklog abort. Steady scenarios
	// need it (offered load can exceed capacity indefinitely); the
	// crash-transient scenario is bounded by its drain deadline.
	divergence bool
}

// Scenario is the per-replication behaviour of one benchmark scenario.
// The shared replication engine (runReplication) owns cluster
// construction, the measure/drain slicing and the DivergenceBacklog
// abort; a scenario only installs load and faults, observes deliveries
// (it is the head of the replication's observer chain), signals
// completion and collects statistics. Cross-cutting measurement that
// composes with any scenario belongs in an Observer (Config.Observers),
// not in a new scenario.
type Scenario interface {
	// Phases reports the replication's time structure to the engine.
	Phases() phases
	// Setup installs the replication's workload and scheduled faults on a
	// freshly built cluster, before any virtual time elapses.
	Setup(c *Cluster)
	// Observer delivers every A-delivery at every process to the
	// scenario, ahead of the configured observers.
	Observer
	// Done reports whether every awaited delivery has been observed, so
	// the drain phase can stop early.
	Done() bool
	// Collect returns the replication's statistics after the run.
	Collect() RepStats
}

// runReplication is the shared replication engine: it builds the cluster,
// attaches the observer chain (scenario first, then one instance per
// Config.Observers factory), runs the measure phase in divergence-checked
// slices, then drains until the scenario reports Done or the drain budget
// runs out. Each invocation is an independent deterministic simulation
// keyed by (cfg.Seed, rep), so replications can run on any goroutine in
// any order; point and rep only name the replication to its observers.
func runReplication(cfg Config, point, rep int, s Scenario) RepStats {
	c := NewCluster(cfg, repSeed(cfg.Seed, rep), nil)

	var observers []Observer
	var bcastObservers []BroadcastObserver
	var netObservers []NetObserver
	var planObservers []PlanObserver
	var loadObservers []LoadObserver
	for _, factory := range cfg.Observers {
		o := factory(point, rep, cfg)
		if o == nil {
			continue
		}
		observers = append(observers, o)
		if bo, ok := o.(BroadcastObserver); ok {
			bcastObservers = append(bcastObservers, bo)
		}
		if no, ok := o.(NetObserver); ok {
			netObservers = append(netObservers, no)
		}
		if po, ok := o.(PlanObserver); ok {
			planObservers = append(planObservers, po)
		}
		if lo, ok := o.(LoadObserver); ok {
			loadObservers = append(loadObservers, lo)
		}
	}

	c.OnDeliver = func(p proto.PID, id proto.MsgID, _ any) {
		d := Delivery{Process: p, ID: id, At: c.Eng.Now()}
		s.ObserveDelivery(d)
		for _, o := range observers {
			o.ObserveDelivery(d)
		}
	}
	if len(bcastObservers) > 0 {
		c.OnBroadcast = func(sender proto.PID, id proto.MsgID) {
			b := Broadcast{Sender: sender, ID: id, At: c.Eng.Now()}
			for _, o := range bcastObservers {
				o.ObserveBroadcast(b)
			}
		}
	}
	if len(netObservers) > 0 {
		c.Sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
			for _, o := range netObservers {
				o.ObserveNet(ev)
			}
		})
	}
	if len(planObservers) > 0 {
		c.OnPlanEvent = func(ev PlanEvent) {
			at := c.Eng.Now()
			for _, o := range planObservers {
				o.ObservePlan(at, ev)
			}
		}
	}
	if len(loadObservers) > 0 {
		c.OnLoadEvent = func(ev LoadEvent) {
			at := c.Eng.Now()
			for _, o := range loadObservers {
				o.ObserveLoad(at, ev)
			}
		}
	}

	s.Setup(c)
	ph := s.Phases()

	// Measure phase. Run in slices so a diverging system (backlog beyond
	// any legitimate transient) is cut short instead of simulated in
	// quadratic agony.
	diverged := false
	if ph.divergence {
		for c.Eng.Now() < ph.measureEnd {
			step := c.Eng.Now().Add(ph.measureSlice)
			if step > ph.measureEnd {
				step = ph.measureEnd
			}
			c.Eng.RunUntil(step)
			if c.backlog() > DivergenceBacklog {
				diverged = true
				break
			}
		}
	} else {
		c.Eng.RunUntil(ph.measureEnd)
	}

	// Drain phase, in slices so the run can stop early once every awaited
	// delivery landed.
	deadline := ph.measureEnd.Add(ph.drain)
	for !diverged && c.Eng.Now() < deadline && !s.Done() {
		step := c.Eng.Now().Add(ph.drainSlice)
		if step > deadline {
			step = deadline
		}
		c.Eng.RunUntil(step)
		if ph.divergence && c.backlog() > DivergenceBacklog {
			diverged = true
		}
	}

	rs := s.Collect()
	rs.Diverged = diverged
	return rs
}

// steadyScenario measures every message A-broadcast inside the measure
// window. It covers normal-steady, crash-steady and suspicion-steady,
// which differ only in Config (Crashed and QoS; see the package
// comment).
type steadyScenario struct {
	cfg        Config
	start, end sim.Time
	sent       map[proto.MsgID]sim.Time
	first      map[proto.MsgID]sim.Time
}

// newSteadyScenario builds the scenario for one replication of a steady
// experiment; cfg must already have defaults applied.
func newSteadyScenario(cfg Config) *steadyScenario {
	start := sim.Time(0).Add(cfg.Warmup)
	return &steadyScenario{
		cfg:   cfg,
		start: start,
		end:   start.Add(cfg.Measure),
		sent:  make(map[proto.MsgID]sim.Time),
		first: make(map[proto.MsgID]sim.Time),
	}
}

func (s *steadyScenario) Phases() phases {
	return phases{
		measureEnd:   s.end,
		drain:        s.cfg.Drain,
		measureSlice: 500 * time.Millisecond,
		drainSlice:   100 * time.Millisecond,
		divergence:   true,
	}
}

func (s *steadyScenario) Setup(c *Cluster) {
	c.StartLoad(func(sender int) {
		id := c.Submit(sender, nil)
		if id.Seq == 0 {
			return // crashed sender (plan-driven): no load generated
		}
		now := c.Eng.Now()
		if now >= s.start && now < s.end {
			s.sent[id] = now
		}
	})
}

func (s *steadyScenario) ObserveDelivery(d Delivery) {
	if _, tracked := s.sent[d.ID]; tracked {
		if _, seen := s.first[d.ID]; !seen {
			s.first[d.ID] = d.At
		}
	}
}

func (s *steadyScenario) Done() bool { return len(s.first) >= len(s.sent) }

func (s *steadyScenario) Collect() RepStats {
	// Accumulate in canonical ID order: floating-point summation is
	// order-sensitive, and map iteration would make results differ across
	// runs (and between the two algorithms) in the last bits.
	ids := make([]proto.MsgID, 0, len(s.sent))
	for id := range s.sent {
		ids = append(ids, id)
	}
	proto.SortMsgIDs(ids)
	var rs RepStats
	for _, id := range ids {
		t1, ok := s.first[id]
		if !ok {
			rs.Undelivered++
			continue
		}
		rs.Latencies.Add(t1.Sub(s.sent[id]).Seconds() * 1000) // milliseconds
	}
	return rs
}

// transientScenario measures the probe message A-broadcast at the exact
// instant of a forced crash (Fig. 8): CrashTransient below.
type transientScenario struct {
	cfg                       TransientConfig
	crashAt                   sim.Time
	probe                     proto.MsgID
	probeSent, probeDelivered sim.Time
	delivered                 bool
}

// CrashTransient builds the crash-transient scenario for one replication;
// cfg must already have defaults applied.
func CrashTransient(cfg TransientConfig) Scenario {
	return &transientScenario{cfg: cfg, crashAt: sim.Time(0).Add(cfg.Warmup)}
}

func (t *transientScenario) Phases() phases {
	return phases{
		measureEnd: t.crashAt,
		drain:      t.cfg.Drain,
		drainSlice: 50 * time.Millisecond,
	}
}

func (t *transientScenario) Setup(c *Cluster) {
	c.StartLoad(func(sender int) { c.Submit(sender, nil) })
	// The scripted crash is a plan event fired through the shared fault
	// machinery, in the same instant and before the probe broadcast.
	c.Eng.Schedule(t.crashAt, func() {
		c.Faults.Fire(Crash{At: t.crashAt.Duration(), P: t.cfg.Crash})
		t.probe = c.Submit(int(t.cfg.Sender), "probe")
		t.probeSent = c.Eng.Now()
	})
}

func (t *transientScenario) ObserveDelivery(d Delivery) {
	if !t.delivered && d.ID == t.probe && t.probeSent > 0 {
		t.delivered = true
		t.probeDelivered = d.At
	}
}

func (t *transientScenario) Done() bool { return t.delivered }

func (t *transientScenario) Collect() RepStats {
	var rs RepStats
	if !t.delivered {
		rs.Undelivered = 1
		return rs
	}
	rs.Latencies.Add(t.probeDelivered.Sub(t.probeSent).Seconds() * 1000)
	return rs
}
