package ctabcast

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// cluster is an end-to-end test harness: n FD-algorithm processes over the
// full simulated network and failure-detector stack.
type cluster struct {
	eng   *sim.Engine
	sys   *proto.System
	procs []*Process
	// deliveries[p] is the A-delivery sequence observed at process p.
	deliveries [][]delivery
	sent       map[proto.MsgID]sim.Time
}

type delivery struct {
	id proto.MsgID
	at sim.Time
}

type clusterOpts struct {
	n         int
	qos       fd.QoS
	renumber  bool
	seed      uint64
	preCrash  []proto.PID
	logRetain int // decision-log retention; 0 = package default
}

func newCluster(o clusterOpts) *cluster {
	if o.seed == 0 {
		o.seed = 1
	}
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(o.n), o.qos, sim.NewRand(o.seed))
	c := &cluster{
		eng:        eng,
		sys:        sys,
		procs:      make([]*Process, o.n),
		deliveries: make([][]delivery, o.n),
		sent:       make(map[proto.MsgID]sim.Time),
	}
	for i := 0; i < o.n; i++ {
		i := i
		c.procs[i] = New(sys.Proc(proto.PID(i)), Config{
			Renumber:  o.renumber,
			LogRetain: o.logRetain,
			Deliver: func(id proto.MsgID, body any) {
				c.deliveries[i] = append(c.deliveries[i], delivery{id: id, at: eng.Now()})
			},
		})
		sys.SetHandler(proto.PID(i), c.procs[i])
	}
	for _, p := range o.preCrash {
		sys.PreCrash(p)
	}
	sys.Start()
	return c
}

// broadcastAt schedules an A-broadcast from p at instant at.
func (c *cluster) broadcastAt(p proto.PID, at sim.Time) {
	c.eng.Schedule(at, func() {
		id := c.procs[p].ABroadcast(fmt.Sprintf("m-%d-%v", p, at))
		c.sent[id] = at
	})
}

// run drives the simulation until quiescent or the horizon.
func (c *cluster) run(horizon time.Duration) {
	c.eng.RunUntil(sim.Time(0).Add(horizon))
}

// ids extracts the ID sequence of one process's deliveries.
func (c *cluster) ids(p int) []proto.MsgID {
	out := make([]proto.MsgID, len(c.deliveries[p]))
	for i, d := range c.deliveries[p] {
		out[i] = d.id
	}
	return out
}

// checkTotalOrder asserts the prefix-consistency of delivery sequences
// across all correct processes plus no-duplication.
func (c *cluster) checkTotalOrder(t *testing.T) {
	t.Helper()
	// Find the longest sequence among correct processes as reference.
	ref := -1
	for p := range c.procs {
		if c.sys.Proc(proto.PID(p)).Crashed() {
			continue
		}
		if ref < 0 || len(c.deliveries[p]) > len(c.deliveries[ref]) {
			ref = p
		}
	}
	if ref < 0 {
		t.Fatal("no correct process")
	}
	refIDs := c.ids(ref)
	seen := make(map[proto.MsgID]bool, len(refIDs))
	for _, id := range refIDs {
		if seen[id] {
			t.Fatalf("duplicate delivery of %v at p%d", id, ref)
		}
		seen[id] = true
	}
	for p := range c.procs {
		if p == ref || c.sys.Proc(proto.PID(p)).Crashed() {
			continue
		}
		ids := c.ids(p)
		if len(ids) > len(refIDs) {
			t.Fatalf("p%d delivered more than reference", p)
		}
		for i := range ids {
			if ids[i] != refIDs[i] {
				t.Fatalf("order mismatch at %d: p%d has %v, p%d has %v", i, p, ids[i], ref, refIDs[i])
			}
		}
	}
}

// checkAllDelivered asserts every correct process delivered every sent
// message (liveness at quiescence, valid when all senders are correct).
func (c *cluster) checkAllDelivered(t *testing.T) {
	t.Helper()
	for p := range c.procs {
		if c.sys.Proc(proto.PID(p)).Crashed() {
			continue
		}
		got := make(map[proto.MsgID]bool)
		for _, d := range c.deliveries[p] {
			got[d.id] = true
		}
		for id := range c.sent {
			if !got[id] {
				t.Fatalf("p%d never delivered %v (delivered %d/%d)", p, id, len(got), len(c.sent))
			}
		}
	}
}

// checkUniformAgreement asserts that any message delivered anywhere
// (including at crashed processes before their crash) is delivered at all
// correct processes.
func (c *cluster) checkUniformAgreement(t *testing.T) {
	t.Helper()
	everywhere := make(map[proto.MsgID]bool)
	for p := range c.procs {
		for _, d := range c.deliveries[p] {
			everywhere[d.id] = true
		}
	}
	for p := range c.procs {
		if c.sys.Proc(proto.PID(p)).Crashed() {
			continue
		}
		got := make(map[proto.MsgID]bool)
		for _, d := range c.deliveries[p] {
			got[d.id] = true
		}
		for id := range everywhere {
			if !got[id] {
				t.Fatalf("uniform agreement violated: %v delivered somewhere but not at correct p%d", id, p)
			}
		}
	}
}

func at(msf float64) sim.Time { return sim.Time(0).Add(sim.Millis(msf)) }

func TestSingleBroadcastLatency(t *testing.T) {
	// Hand-computed failure-free timing at λ=1 (the Fig. 1 pattern):
	// m: CPU₀ 0→1, wire 1→2, CPU₁/₂ 2→3. Proposal: CPU₀ 1→2, wire 2→3,
	// CPU 3→4. Ack from p1: 4→5, 5→6, 6→7 — majority at the coordinator,
	// which A-delivers at 7 ms. The redundant ack from p2 occupies CPU₀
	// 7→8, so the decision goes out 8→9, wire 9→10, CPU 10→11: the other
	// processes A-deliver at 11 ms. Latency (min over processes) = 7 ms.
	c := newCluster(clusterOpts{n: 3})
	c.broadcastAt(0, 0)
	c.run(time.Second)
	for p := 0; p < 3; p++ {
		if len(c.deliveries[p]) != 1 {
			t.Fatalf("p%d delivered %d messages, want 1", p, len(c.deliveries[p]))
		}
	}
	if got := c.deliveries[0][0].at; got != at(7) {
		t.Fatalf("coordinator A-delivered at %v, want 7ms", got)
	}
	for p := 1; p < 3; p++ {
		if got := c.deliveries[p][0].at; got != at(11) {
			t.Fatalf("p%d A-delivered at %v, want 11ms", p, got)
		}
	}
}

func TestNonCoordinatorBroadcastLatency(t *testing.T) {
	// The sender being p2 does not change who decides first: the
	// coordinator p0 still A-delivers first.
	c := newCluster(clusterOpts{n: 3})
	c.broadcastAt(2, 0)
	c.run(time.Second)
	first := c.deliveries[0][0].at
	// m reaches p0 at 3 ms; proposal CPU₀ 3→4, wire 4→5, CPU 5→6; first
	// ack 6→7, 7→8, 8→9: the coordinator decides at 9 ms.
	if first != at(9) {
		t.Fatalf("coordinator delivered at %v, want 9ms", first)
	}
	c.checkTotalOrder(t)
}

func TestTotalOrderUnderConcurrentLoad(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	// 60 broadcasts from all 3 senders, bursts every 2 ms.
	for i := 0; i < 20; i++ {
		for p := 0; p < 3; p++ {
			c.broadcastAt(proto.PID(p), at(float64(2*i)))
		}
	}
	c.run(5 * time.Second)
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
}

func TestAggregationBatchesUnderLoad(t *testing.T) {
	// A burst of messages while instance 1 runs must be ordered by far
	// fewer consensus instances than messages.
	c := newCluster(clusterOpts{n: 3})
	for i := 0; i < 30; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(i)/4)) // 4 msgs/ms burst
	}
	c.run(time.Second)
	c.checkAllDelivered(t)
	instances := c.procs[0].NextInstance() - 1
	if instances == 0 || instances >= 15 {
		t.Fatalf("30 messages used %d instances; aggregation broken", instances)
	}
}

func TestSevenProcesses(t *testing.T) {
	c := newCluster(clusterOpts{n: 7})
	for i := 0; i < 10; i++ {
		c.broadcastAt(proto.PID(i%7), at(float64(5*i)))
	}
	c.run(time.Second)
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
}

func TestCoordinatorCrashTransient(t *testing.T) {
	// p0 (round-1 coordinator) crashes exactly when p1 broadcasts. The
	// message must still be delivered after detection (TD) + round 2.
	td := 10 * time.Millisecond
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: td}})
	crash := at(50)
	c.sys.CrashAt(0, crash)
	c.broadcastAt(1, crash)
	c.run(2 * time.Second)
	for p := 1; p < 3; p++ {
		if len(c.deliveries[p]) != 1 {
			t.Fatalf("survivor p%d delivered %d, want 1", p, len(c.deliveries[p]))
		}
		if got := c.deliveries[p][0].at; got.Sub(crash) <= td {
			t.Fatalf("delivered at %v, impossibly before detection at %v", got, crash.Add(td))
		}
	}
	c.checkTotalOrder(t)
}

func TestCrashSteadyNonCoordinator(t *testing.T) {
	// A long-ago crash of a non-coordinator: everything works, nobody
	// waits for the dead process (majority is 2 of the original 3).
	c := newCluster(clusterOpts{n: 3, preCrash: []proto.PID{2}})
	c.broadcastAt(0, 0)
	c.broadcastAt(1, at(5))
	c.run(time.Second)
	for p := 0; p < 2; p++ {
		if len(c.deliveries[p]) != 2 {
			t.Fatalf("p%d delivered %d, want 2", p, len(c.deliveries[p]))
		}
	}
	if len(c.deliveries[2]) != 0 {
		t.Fatal("pre-crashed process delivered messages")
	}
	c.checkTotalOrder(t)
}

func TestCrashSteadyCoordinatorWithRenumbering(t *testing.T) {
	// The round-1 coordinator is long dead. With renumbering, after the
	// first decision the proposer (a live process) coordinates round 1 of
	// later instances: no nacks appear in the steady state.
	c := newCluster(clusterOpts{n: 3, preCrash: []proto.PID{0}, renumber: true})
	var nacksLate int
	cutoff := at(200)
	c.sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		if ev.Kind != netmodel.TraceSend {
			return
		}
		if cm, ok := ev.Payload.(*consMsg); ok {
			if fmt.Sprintf("%T", cm.M) == "consensus.MsgNack" && ev.At > cutoff {
				nacksLate++
			}
		}
	})
	for i := 0; i < 40; i++ {
		c.broadcastAt(proto.PID(1+i%2), at(float64(10*i)))
	}
	c.run(2 * time.Second)
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
	if nacksLate != 0 {
		t.Fatalf("renumbering left %d steady-state nacks", nacksLate)
	}
}

func TestCrashSteadyCoordinatorWithoutRenumbering(t *testing.T) {
	// Control for the renumbering ablation: without it, every instance
	// pays nacks against the dead round-1 coordinator, forever.
	c := newCluster(clusterOpts{n: 3, preCrash: []proto.PID{0}, renumber: false})
	var nacksLate int
	cutoff := at(200)
	c.sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		if ev.Kind == netmodel.TraceSend {
			if cm, ok := ev.Payload.(*consMsg); ok && fmt.Sprintf("%T", cm.M) == "consensus.MsgNack" && ev.At > cutoff {
				nacksLate++
			}
		}
	})
	for i := 0; i < 40; i++ {
		c.broadcastAt(proto.PID(1+i%2), at(float64(10*i)))
	}
	c.run(2 * time.Second)
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
	if nacksLate == 0 {
		t.Fatal("expected steady-state nacks without renumbering")
	}
}

func TestWrongSuspicionStillDelivers(t *testing.T) {
	// A transient wrong suspicion of the coordinator mid-instance burns a
	// round but loses nothing.
	c := newCluster(clusterOpts{n: 3})
	c.broadcastAt(1, at(10))
	c.eng.Schedule(at(11), func() {
		c.sys.FDs.InjectMistake(1, 0, 5*time.Millisecond)
		c.sys.FDs.InjectMistake(2, 0, 5*time.Millisecond)
	})
	c.run(time.Second)
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
}

func TestSuspicionStormSafety(t *testing.T) {
	// Aggressive wrong suspicions (TMR = 20ms, TM = 2ms) with load: the
	// algorithm must stay safe and eventually deliver everything.
	c := newCluster(clusterOpts{
		n:    3,
		qos:  fd.QoS{TMR: 20 * time.Millisecond, TM: 2 * time.Millisecond},
		seed: 99,
	})
	for i := 0; i < 30; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(20*i)))
	}
	c.run(20 * time.Second)
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
}

func TestUniformAgreementAcrossCrash(t *testing.T) {
	// Crash a process mid-run: everything it delivered must be delivered
	// by the survivors.
	for seed := uint64(1); seed <= 20; seed++ {
		c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 5 * time.Millisecond}, seed: seed})
		for i := 0; i < 20; i++ {
			c.broadcastAt(proto.PID(i%3), at(float64(3*i)))
		}
		victim := proto.PID(seed % 3)
		c.sys.CrashAt(victim, at(float64(20+seed*2)))
		c.run(5 * time.Second)
		c.checkTotalOrder(t)
		c.checkUniformAgreement(t)
	}
}

func TestRandomisedFaultSchedules(t *testing.T) {
	// Random crashes (minority) and random mistakes under load: safety
	// always, liveness for correct processes at quiescence.
	for seed := uint64(1); seed <= 15; seed++ {
		rng := sim.NewRand(seed * 1337)
		n := 3 + 2*rng.Intn(2) // 3 or 5
		c := newCluster(clusterOpts{
			n:    n,
			qos:  fd.QoS{TD: 10 * time.Millisecond, TMR: 300 * time.Millisecond, TM: 5 * time.Millisecond},
			seed: seed,
		})
		for i := 0; i < 25; i++ {
			sender := proto.PID(rng.Intn(n))
			c.broadcastAt(sender, at(float64(rng.Intn(400))))
		}
		crashes := rng.Intn((n-1)/2 + 1)
		crashedSet := map[proto.PID]bool{}
		for k := 0; k < crashes; k++ {
			victim := proto.PID(rng.Intn(n))
			if !crashedSet[victim] {
				crashedSet[victim] = true
				c.sys.CrashAt(victim, at(float64(100+rng.Intn(300))))
			}
		}
		c.run(30 * time.Second)
		c.checkTotalOrder(t)
		c.checkUniformAgreement(t)
		// Messages from correct senders must be everywhere; messages from
		// crashed senders may or may not have made it (validity only
		// covers correct senders).
		for id, when := range c.sent {
			if crashedSet[id.Origin] {
				continue
			}
			for p := 0; p < n; p++ {
				if c.sys.Proc(proto.PID(p)).Crashed() {
					continue
				}
				found := false
				for _, d := range c.deliveries[p] {
					if d.id == id {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("seed %d: message %v (sent %v) missing at p%d", seed, id, when, p)
				}
			}
		}
	}
}

func TestDeliverCallbackRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil Deliver did not panic")
		}
	}()
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(1), fd.QoS{}, sim.NewRand(1))
	New(sys.Proc(0), Config{})
}

func TestGarbageCollectionBoundsState(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	// Enough spaced-out messages to force many instances.
	for i := 0; i < 200; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(15*i)))
	}
	c.run(10 * time.Second)
	c.checkAllDelivered(t)
	p := c.procs[0]
	if p.NextInstance() < 100 {
		t.Fatalf("expected many instances, got %d", p.NextInstance())
	}
	if len(p.instances) > instanceWindow+2 {
		t.Fatalf("instance map grew to %d despite window %d", len(p.instances), instanceWindow)
	}
	if len(p.bodies) != 0 || len(p.pending) != 0 {
		t.Fatalf("leftover state: %d bodies, %d pending", len(p.bodies), len(p.pending))
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []delivery {
		c := newCluster(clusterOpts{
			n:    3,
			qos:  fd.QoS{TMR: 100 * time.Millisecond, TM: 3 * time.Millisecond},
			seed: 777,
		})
		for i := 0; i < 20; i++ {
			c.broadcastAt(proto.PID(i%3), at(float64(7*i)))
		}
		c.run(5 * time.Second)
		return c.deliveries[1]
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic delivery count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic delivery %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRenumberingUnderSustainedSuspicions(t *testing.T) {
	// With renumbering on and periodic wrong suspicions, instances keep
	// being created reactively before their predecessors are delivered,
	// exercising the buffered-consensus-message path (messages for
	// instance k+1 arriving before decision k fixes the coordinator
	// order).
	c := newCluster(clusterOpts{
		n:        3,
		renumber: true,
		qos:      fd.QoS{TMR: 60 * time.Millisecond, TM: 4 * time.Millisecond},
		seed:     31,
	})
	for i := 0; i < 60; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(3*i)))
	}
	c.run(10 * time.Second)
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
}

func TestHandlerSurface(t *testing.T) {
	c := newCluster(clusterOpts{n: 3})
	p := c.procs[0]
	p.Init()     // no-op, must not panic
	p.OnTrust(1) // FD algorithm ignores trust edges
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d on idle process", p.Pending())
	}
	c.broadcastAt(0, 0)
	c.run(20 * time.Millisecond)
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d after delivery", p.Pending())
	}
	// consMsg names its inner message for traces.
	s := consMsg{K: 3, M: consensus.MsgAck{Round: 1}}.String()
	if s != "MsgAck[k=3]" {
		t.Fatalf("consMsg.String() = %q", s)
	}
}

func TestUnknownPayloadPanics(t *testing.T) {
	c := newCluster(clusterOpts{n: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("unknown payload did not panic")
		}
	}()
	c.procs[0].OnMessage(0, struct{ weird int }{1})
}

func TestVeryLateStragglerMessagesIgnored(t *testing.T) {
	// Messages for instances below the GC window are dropped silently.
	c := newCluster(clusterOpts{n: 3})
	p := c.procs[0]
	p.oldest = 100
	p.OnMessage(1, &consMsg{K: 5, M: consensus.MsgAck{Round: 1}})
	// Nothing to assert beyond "no panic and no instance created".
	if _, ok := p.instances[5]; ok {
		t.Fatal("GC'd instance resurrected")
	}
}
