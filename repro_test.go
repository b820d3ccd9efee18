package repro

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestQuickSteadyRun(t *testing.T) {
	res := RunSteady(Config{
		Algorithm:    FD,
		N:            3,
		Throughput:   50,
		Warmup:       200 * time.Millisecond,
		Measure:      2 * time.Second,
		Drain:        5 * time.Second,
		Replications: 2,
	})
	if !res.Stable || res.Messages == 0 {
		t.Fatalf("facade steady run failed: %+v", res)
	}
	if res.Latency.Mean < 7 {
		t.Fatalf("latency %v below physical floor", res.Latency.Mean)
	}
}

func TestClusterBroadcastAndDeliver(t *testing.T) {
	var deliveries []Delivery
	c := NewCluster(ClusterConfig{
		Algorithm: FD,
		N:         3,
		OnDeliver: func(d Delivery) { deliveries = append(deliveries, d) },
	})
	id := c.Broadcast(0, "hello")
	c.RunUntilIdle()
	if len(deliveries) != 3 {
		t.Fatalf("got %d deliveries, want one per process", len(deliveries))
	}
	for _, d := range deliveries {
		if d.ID != id || d.Body != "hello" {
			t.Fatalf("delivery = %+v", d)
		}
	}
	if deliveries[0].At != 7*time.Millisecond {
		t.Fatalf("first delivery at %v, want 7ms", deliveries[0].At)
	}
}

func TestClusterScheduledOperations(t *testing.T) {
	count := 0
	c := NewCluster(ClusterConfig{
		Algorithm: GM,
		N:         3,
		QoS:       Detectors(10, 0, 0),
		OnDeliver: func(d Delivery) {
			if d.Process == 1 {
				count++
			}
		},
	})
	c.BroadcastAt(1, 5*time.Millisecond, "a")
	c.CrashAt(0, 20*time.Millisecond)
	c.BroadcastAt(2, 30*time.Millisecond, "b")
	c.Run(2 * time.Second)
	if count != 2 {
		t.Fatalf("p1 delivered %d messages, want 2 (before and after crash)", count)
	}
	if !c.Crashed(0) || c.Crashed(1) {
		t.Fatal("crash bookkeeping wrong")
	}
}

func TestClusterViewObserver(t *testing.T) {
	var views []ViewInfo
	c := NewCluster(ClusterConfig{
		Algorithm: GM,
		N:         3,
		OnView: func(v ViewInfo) {
			if v.Process == 2 {
				views = append(views, v)
			}
		},
	})
	c.SuspectAt(0, 1, 10*time.Millisecond, 50*time.Millisecond)
	c.Run(time.Second)
	// p2 sees: initial view, the view excluding p1, and the rejoin view.
	if len(views) < 3 {
		t.Fatalf("p2 observed %d views, want >= 3: %+v", len(views), views)
	}
	if len(views[0].Members) != 3 || views[0].ViewID != 1 {
		t.Fatalf("initial view = %+v", views[0])
	}
	if len(views[1].Members) != 2 {
		t.Fatalf("exclusion view = %+v", views[1])
	}
	last := views[len(views)-1]
	if len(last.Members) != 3 {
		t.Fatalf("final view = %+v, want p1 back", last)
	}
}

func TestClusterTraceAndStats(t *testing.T) {
	var events []NetEvent
	c := NewCluster(ClusterConfig{Algorithm: GMNonUniform, N: 3})
	c.SetTrace(func(ev NetEvent) { events = append(events, ev) })
	c.Broadcast(0, "x")
	c.RunUntilIdle()
	if len(events) == 0 {
		t.Fatal("no trace events")
	}
	st := c.Stats()
	if st.Multicasts != 2 || st.Unicasts != 0 {
		t.Fatalf("non-uniform stats = %+v, want 2 multicasts", st)
	}
	c.SetTrace(nil) // must not panic
}

func TestClusterPreCrashed(t *testing.T) {
	got := 0
	c := NewCluster(ClusterConfig{
		Algorithm:  GM,
		N:          3,
		PreCrashed: []int{2},
		OnDeliver:  func(d Delivery) { got++ },
	})
	c.Broadcast(0, "y")
	c.RunUntilIdle()
	if got != 2 {
		t.Fatalf("deliveries = %d, want 2 (survivors only)", got)
	}
}

// TestClusterValidation checks every rejection branch of the facade:
// each must panic at the call with a validation error, never with a
// runtime error from inside the simulation.
func TestClusterValidation(t *testing.T) {
	cluster := func(cfg ClusterConfig) func() {
		return func() { NewCluster(cfg) }
	}
	twoGroups := Disjoint(6, 2)
	cases := []struct {
		name string
		run  func()
	}{
		{"zero N", cluster(ClusterConfig{N: 0})},
		{"pre-crashed out of range", cluster(ClusterConfig{N: 3, PreCrashed: []int{5}})},
		{"negative pre-crashed", cluster(ClusterConfig{N: 3, PreCrashed: []int{-1}})},
		{"pre-crashed majority", cluster(ClusterConfig{N: 3, PreCrashed: []int{1, 2}})},
		{"unknown algorithm", cluster(ClusterConfig{Algorithm: Algorithm(9), N: 3})},
		{"cross-shard without groups", cluster(ClusterConfig{N: 3, CrossShard: 0.5})},
		{"shardmix without groups", cluster(ClusterConfig{N: 3, Load: NewLoadPlan().Mix(time.Second, 0.5)})},
		{"GM recover in groups mode", cluster(ClusterConfig{
			Algorithm: GM, N: 6, Groups: twoGroups,
			Plan: NewFaultPlan().Crash(time.Second, 1).Recover(2*time.Second, 1),
		})},
		{"BroadcastAt out of range", func() {
			NewCluster(ClusterConfig{N: 3}).BroadcastAt(3, time.Millisecond, nil)
		}},
		{"BroadcastAt negative", func() {
			NewCluster(ClusterConfig{N: 3}).BroadcastAt(-1, time.Millisecond, nil)
		}},
		{"MulticastAt out of range", func() {
			NewCluster(ClusterConfig{N: 6, Groups: twoGroups}).MulticastAt(6, time.Millisecond, []int{0}, nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if _, isRuntime := r.(runtime.Error); isRuntime {
					t.Fatalf("panicked with a runtime error: %v", r)
				}
				err, ok := r.(error)
				if !ok {
					t.Fatalf("panicked with %v, want an error", r)
				}
				if msg := err.Error(); !strings.HasPrefix(msg, "repro:") && !strings.HasPrefix(msg, "experiment:") {
					t.Fatalf("error %q lacks the repro:/experiment: prefix", msg)
				}
			}()
			tc.run()
		})
	}
}

func TestHelpers(t *testing.T) {
	if Milliseconds(1.5) != 1500*time.Microsecond {
		t.Fatal("Milliseconds conversion wrong")
	}
	q := Detectors(10, 100, 5)
	if q.TD != 10*time.Millisecond || q.TMR != 100*time.Millisecond || q.TM != 5*time.Millisecond {
		t.Fatalf("Detectors = %+v", q)
	}
	if Perfect() != (QoS{}) {
		t.Fatal("Perfect() not zero QoS")
	}
}

func TestClusterWithHeartbeatDetector(t *testing.T) {
	delivered := make(map[int]int)
	c := NewCluster(ClusterConfig{
		Algorithm: FD,
		N:         3,
		Heartbeat: &HeartbeatConfig{Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond},
		OnDeliver: func(d Delivery) { delivered[d.Process]++ },
	})
	c.Broadcast(0, "x")
	c.CrashAt(0, 20*time.Millisecond)
	c.BroadcastAt(1, 30*time.Millisecond, "y")
	c.Run(3 * time.Second)
	// Survivors must deliver both messages; detection runs on heartbeats.
	if delivered[1] != 2 || delivered[2] != 2 {
		t.Fatalf("deliveries = %v, want 2 at each survivor", delivered)
	}
	// Heartbeat traffic must be visible on the wire.
	if c.Stats().Multicasts < 100 {
		t.Fatalf("multicasts = %d, expected heartbeat traffic", c.Stats().Multicasts)
	}
}

func TestClusterHeartbeatWithGM(t *testing.T) {
	views := 0
	c := NewCluster(ClusterConfig{
		Algorithm: GM,
		N:         3,
		Heartbeat: &HeartbeatConfig{Interval: 5 * time.Millisecond, Timeout: 25 * time.Millisecond},
		OnView:    func(ViewInfo) { views++ },
	})
	c.CrashAt(2, 50*time.Millisecond)
	c.Run(2 * time.Second)
	// Initial views (3 processes) plus the exclusion change (2 survivors).
	if views < 5 {
		t.Fatalf("view notifications = %d, want >= 5", views)
	}
}

func TestClusterWorkloadAndLoadMethods(t *testing.T) {
	// A cluster with the built-in Poisson workload, shaped interactively:
	// mute sender 2 for a window, pause everyone for another, and watch
	// the load events apply in order.
	var events []string
	var eventTimes []time.Duration
	perSender := make(map[int]int)
	c := NewCluster(ClusterConfig{
		Algorithm:  FD,
		N:          3,
		Throughput: 300,
		OnDeliver: func(d Delivery) {
			if d.Process == 0 {
				perSender[int(d.ID.Origin)]++
			}
		},
		OnLoad: func(at time.Duration, ev LoadEvent) {
			events = append(events, ev.String())
			eventTimes = append(eventTimes, at)
		},
	})
	c.MuteAt(100*time.Millisecond, 2)
	c.UnmuteAt(400*time.Millisecond, 2)
	c.PauseAt(600 * time.Millisecond)
	c.ResumeAt(700 * time.Millisecond)
	c.SetRateAt(800*time.Millisecond, int(AllSenders), 600)
	// Silence the workload before draining: RunUntilIdle never returns
	// while a Poisson source keeps scheduling.
	c.PauseAt(1200 * time.Millisecond)
	c.Run(1200 * time.Millisecond)
	c.RunUntilIdle()

	want := []string{"mute p2", "unmute p2", "pause", "resume", "rate all=600/s", "pause"}
	if len(events) != len(want) {
		t.Fatalf("observed load events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, events[i], want[i])
		}
	}
	for i, at := range eventTimes {
		if at != []time.Duration{100, 400, 600, 700, 800, 1200}[i]*time.Millisecond {
			t.Fatalf("event %d applied at %v", i, at)
		}
	}
	for s := 0; s < 3; s++ {
		if perSender[s] == 0 {
			t.Fatalf("sender %d delivered nothing; workload not running: %v", s, perSender)
		}
	}
}

func TestClusterLoadPlanAtConstruction(t *testing.T) {
	// The same shaping as a ClusterConfig.Load timeline, with a silent
	// (zero-throughput) workload raised mid-run by a plan event.
	delivered := 0
	c := NewCluster(ClusterConfig{
		Algorithm: GM,
		N:         3,
		Load: NewLoadPlan().
			Rate(200*time.Millisecond, AllSenders, 900).
			Pause(1100 * time.Millisecond), // silence before the idle drain
		OnDeliver: func(d Delivery) {
			if d.Process == 0 {
				delivered++
			}
		},
	})
	c.Run(150 * time.Millisecond)
	if delivered != 0 {
		t.Fatalf("%d deliveries before the rate change raised a silent workload", delivered)
	}
	c.Run(time.Second)
	c.RunUntilIdle()
	if delivered == 0 {
		t.Fatal("no deliveries after the plan raised the rate")
	}
}

func TestClusterLoadValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range load event accepted")
		}
	}()
	c := NewCluster(ClusterConfig{Algorithm: FD, N: 3})
	c.MuteAt(time.Millisecond, 7)
}
