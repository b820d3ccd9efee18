package experiment

import (
	"sort"
	"sync"

	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Broadcast records one A-broadcast issued during a replication: the
// counterpart of Delivery on the sending side.
type Broadcast struct {
	Sender proto.PID
	ID     proto.MsgID
	At     sim.Time
}

// Observer receives a replication's observable events. Observers are the
// composable half of the scenario split: a Scenario decides what load and
// faults a replication runs and which statistic it collects, while
// observers attach cross-cutting measurement — latency distributions,
// trace export, anything event-driven — to any scenario without touching
// it. Config.Observers lists the factories; the replication engine builds
// one observer instance per replication and feeds it every A-delivery.
//
// An observer that also implements BroadcastObserver receives every
// A-broadcast, and one that implements NetObserver receives every
// message lifecycle point from the network model's tracer.
//
// Observer instances are confined to their replication (one goroutine);
// anything shared across replications must synchronise, and anything
// aggregated across replications must merge in canonical (point,
// replication) order to keep results bit-identical at any worker count —
// see LatencyDist for the pattern.
type Observer interface {
	// ObserveDelivery is invoked for every A-delivery at every process.
	ObserveDelivery(d Delivery)
}

// BroadcastObserver is implemented by observers that also want the
// sending side of every message.
type BroadcastObserver interface {
	// ObserveBroadcast is invoked for every A-broadcast issued by the
	// scenario, at the instant it is issued.
	ObserveBroadcast(b Broadcast)
}

// NetObserver is implemented by observers that also want the network
// model's message lifecycle points (send, wire, deliver, drop). The
// engine installs netmodel's tracer only when at least one observer of a
// replication asks for it, so replications without a NetObserver pay
// nothing.
type NetObserver interface {
	// ObserveNet is invoked at every message lifecycle point.
	ObserveNet(ev netmodel.TraceEvent)
}

// PlanObserver is implemented by observers that also want the fault
// plan's events — scripted crashes included — at the instants they apply.
// PreCrash events are initial conditions, not timeline events, and are
// not observed; they are part of the configuration instead.
type PlanObserver interface {
	// ObservePlan is invoked when a plan event applies.
	ObservePlan(at sim.Time, ev PlanEvent)
}

// LoadObserver is implemented by observers that also want the load
// plan's events at the instants they apply. Only plan (and interactively
// scheduled) events are observed, not their internal continuations: a
// Burst is one event, observed when the spike starts.
type LoadObserver interface {
	// ObserveLoad is invoked when a load event applies.
	ObserveLoad(at sim.Time, ev LoadEvent)
}

// ObserverFactory builds one observer instance for one replication.
// point is the index of the replication's config within the executed
// batch — a Sweep's canonical point order, a SteadyAll/TransientAll slice
// index, or 0 for single-point runs — and rep is the replication index
// within that point. Returning nil attaches nothing to the replication.
type ObserverFactory func(point, rep int, cfg Config) Observer

// repKey addresses one replication of one point in an observer's
// cross-replication state.
type repKey struct{ point, rep int }

// LatencyDist is a cross-cutting observer measuring the latency from
// every A-broadcast to its earliest A-delivery on any process, pooled
// per point into mergeable collectors. Unlike Result.Dist — which holds
// only the messages of the measurement window — LatencyDist sees every
// broadcast of the replication, warmup and drain included, and it
// composes with any scenario (the crash-transient scenario measures a
// single probe; attach a LatencyDist to see the background traffic's
// distribution around the crash).
//
// Attach it by appending its Observer method to Config.Observers: each
// replication gets a private instance,
// and per-replication collectors merge in canonical (point, replication)
// order on first read, so the reported distributions are bit-identical
// at any Runner.Workers count.
//
// One LatencyDist accumulates one run: point indices restart at 0 for
// every Runner call, so reusing the observer across runs would overwrite
// colliding (point, replication) slots. Call Reset between runs, or use
// a fresh LatencyDist per run.
type LatencyDist struct {
	mu   sync.Mutex
	reps map[repKey]*latencyDistRep
}

// NewLatencyDist creates an empty distribution observer.
func NewLatencyDist() *LatencyDist {
	return &LatencyDist{reps: make(map[repKey]*latencyDistRep)}
}

// Observer is the ObserverFactory of the distribution: pass it in
// Config.Observers.
func (l *LatencyDist) Observer(point, rep int, cfg Config) Observer {
	r := &latencyDistRep{sent: make(map[proto.MsgID]sim.Time)}
	l.mu.Lock()
	l.reps[repKey{point, rep}] = r
	l.mu.Unlock()
	return r
}

// Dist returns the point's pooled latency distribution (milliseconds),
// merged in replication order. Call it after the run; a point that was
// never observed returns an empty collector.
func (l *LatencyDist) Dist(point int) stats.Collector {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]repKey, 0, len(l.reps))
	for k := range l.reps {
		if k.point == point {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].rep < keys[j].rep })
	var out stats.Collector
	for _, k := range keys {
		out.Merge(&l.reps[k].lat)
	}
	return out
}

// Quantiles snapshots the point's order statistics (P50/P90/P99).
func (l *LatencyDist) Quantiles(point int) stats.Quantiles {
	d := l.Dist(point)
	return d.Quantiles()
}

// Reset drops every collected distribution, readying the observer for
// another run.
func (l *LatencyDist) Reset() {
	l.mu.Lock()
	l.reps = make(map[repKey]*latencyDistRep)
	l.mu.Unlock()
}

// Points lists the point indices observed so far, ascending.
func (l *LatencyDist) Points() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := make(map[int]bool)
	for k := range l.reps {
		seen[k.point] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// latencyDistRep is the per-replication instance: single-goroutine, no
// locking on the event path.
type latencyDistRep struct {
	sent map[proto.MsgID]sim.Time
	lat  stats.Collector
}

func (r *latencyDistRep) ObserveBroadcast(b Broadcast) { r.sent[b.ID] = b.At }

func (r *latencyDistRep) ObserveDelivery(d Delivery) {
	if t0, ok := r.sent[d.ID]; ok {
		r.lat.Add(d.At.Sub(t0).Seconds() * 1000) // milliseconds, like RepStats
		delete(r.sent, d.ID)                     // only the earliest delivery counts
	}
}
