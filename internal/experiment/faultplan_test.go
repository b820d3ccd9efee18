package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/proto"
)

// planBase is the configuration the FaultPlan determinism tests run on:
// small enough for CI, long enough for the faults to open, resolve and
// drain their late deliveries.
func planBase(alg Algorithm) Config {
	return Config{
		Algorithm:    alg,
		N:            5,
		Throughput:   100,
		QoS:          fd.QoS{TD: 10 * time.Millisecond},
		Seed:         1,
		Warmup:       500 * time.Millisecond,
		Measure:      2 * time.Second,
		Drain:        8 * time.Second,
		Replications: 2,
	}
}

func partitionHealPlan() *FaultPlan {
	return NewFaultPlan().
		Partition(1200*time.Millisecond, []proto.PID{0, 1, 2}, []proto.PID{3, 4}).
		Heal(1800 * time.Millisecond)
}

func crashRecoverPlan() *FaultPlan {
	return NewFaultPlan().
		Crash(1000*time.Millisecond, 4).
		Recover(1600*time.Millisecond, 4)
}

// longOutagePlan keeps p4 down through two full seconds of steady
// traffic — a couple of hundred decisions, several times the FD
// consensus instance window — so peers garbage-collect every instance
// the crashed process misses and its recovery can only complete through
// decision-log catch-up.
func longOutagePlan() *FaultPlan {
	return NewFaultPlan().
		Crash(600*time.Millisecond, 4).
		Recover(2400*time.Millisecond, 4)
}

// goldenPlanDigests pin the delivery digests of one partition-heal and
// one crash-recover replication per algorithm. They were recorded when
// the FaultPlan machinery was introduced; a change means partitions,
// recoveries or their failure-detector coupling retime or reorder
// events — a correctness bug, not a baseline to re-record.
//
// The FD entries were re-recorded once, when decision-log catch-up
// landed: a recovered or heal-rejoined FD process now requests and
// re-delivers the decision suffix it missed instead of staying wedged,
// which changes (improves) the delivery sequences of both FD scenarios.
// The GM entries are untouched since their first recording — GM's own
// rejoin machinery predates catch-up and must not be affected by it.
var goldenPlanDigests = map[string][]uint64{
	"partition-heal/FD":  {0x04be297fb3fb5acf, 0xf4447bcf121c3191},
	"partition-heal/GM":  {0xefb9b221b3333887, 0x106d7618aebb358c},
	"crash-recover/FD":   {0x62a6a645e2a7b754, 0xc1160e12abb12c3d},
	"crash-recover/GM":   {0x5a6ab766452dd62d, 0x8d5ab070c873978b},
	"long-outage/FD":     {0xd84aa5c3358a1d50, 0x9064232003ef3eb5},
	"long-outage/GM":     {0x98d6538394389e39, 0x6377cca6da1207a7},
	"precrash-vs-legacy": {0xeb2f8b6ae97a4a10, 0xa1b4b43c17445f23},
}

// planDigests runs cfg through a Runner with the given worker count and
// returns the per-replication delivery digests in canonical order.
func planDigests(t *testing.T, cfg Config, workers int) []uint64 {
	t.Helper()
	tr := NewTrace(&bytes.Buffer{})
	cfg.Observers = []ObserverFactory{tr.Observer}
	r := Runner{Workers: workers}
	r.Steady(cfg)
	ds := tr.Digests()
	out := make([]uint64, len(ds))
	for i, d := range ds {
		out[i] = d.Digest
	}
	return out
}

// TestFaultPlanGoldenDigests locks the partition-heal and crash-recover
// scenarios bit for bit, and asserts the digests are identical at 1 and
// 8 runner workers.
func TestFaultPlanGoldenDigests(t *testing.T) {
	cases := []struct {
		name string
		alg  Algorithm
		plan *FaultPlan
	}{
		{"partition-heal/FD", FD, partitionHealPlan()},
		{"partition-heal/GM", GM, partitionHealPlan()},
		{"crash-recover/FD", FD, crashRecoverPlan()},
		{"crash-recover/GM", GM, crashRecoverPlan()},
		{"long-outage/FD", FD, longOutagePlan()},
		{"long-outage/GM", GM, longOutagePlan()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := planBase(tc.alg)
			cfg.Plan = tc.plan
			serial := planDigests(t, cfg, 1)
			parallel := planDigests(t, cfg, 8)
			want := goldenPlanDigests[tc.name]
			if len(serial) != len(want) {
				t.Fatalf("got %d replication digests, want %d", len(serial), len(want))
			}
			for i := range serial {
				if serial[i] != parallel[i] {
					t.Fatalf("rep %d: serial digest %#016x != parallel digest %#016x", i, serial[i], parallel[i])
				}
				if serial[i] != want[i] {
					t.Fatalf("rep %d: digest %#016x, want golden %#016x", i, serial[i], want[i])
				}
			}
		})
	}
}

// TestCrashedIsPreCrashConstructor asserts the acceptance criterion that
// Config.Crashed and a plan of PreCrash events are the same thing: the
// delivery digests agree bit for bit.
func TestCrashedIsPreCrashConstructor(t *testing.T) {
	legacy := planBase(GM)
	legacy.Crashed = []proto.PID{4, 3}

	planned := planBase(GM)
	planned.Plan = NewFaultPlan().PreCrash(4).PreCrash(3)

	a := planDigests(t, legacy, 1)
	b := planDigests(t, planned, 1)
	want := goldenPlanDigests["precrash-vs-legacy"]
	if len(a) != len(b) || len(a) != len(want) {
		t.Fatalf("digest counts differ: %d vs %d vs golden %d", len(a), len(b), len(want))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rep %d: Crashed digest %#016x != PreCrash plan digest %#016x", i, a[i], b[i])
		}
		if a[i] != want[i] {
			t.Fatalf("rep %d: digest %#016x, want golden %#016x", i, a[i], want[i])
		}
	}
}

// TestPartitionPlanRecoversThroughGM asserts the behavioural contrast the
// partition figure plots: under the same partition-and-heal plan the GM
// algorithm delivers every measured message (the minority rejoins with
// state transfer and re-announces what the partition swallowed), while
// the FD algorithm loses the minority's partition-era messages.
func TestPartitionPlanRecoversThroughGM(t *testing.T) {
	var r Runner
	res := r.Sweep(Sweep{
		Base:       planBase(FD),
		Algorithms: []Algorithm{FD, GM},
		Plans:      []*FaultPlan{partitionHealPlan()},
	})
	fdRes, gmRes := res[0], res[1]
	if fdRes.Undelivered == 0 {
		t.Fatal("FD lost nothing through the partition; expected minority messages to be lost")
	}
	if gmRes.Undelivered != 0 {
		t.Fatalf("GM left %d messages undelivered; rejoin + re-announcement should recover all", gmRes.Undelivered)
	}
	if gmRes.Quantiles.P99 < 100 {
		t.Fatalf("GM P99 = %.1fms; the recovered messages should form a late tail", gmRes.Quantiles.P99)
	}
}

// TestLongOutagePlanCatchUpTracedAndReplays runs the long-outage plan
// under FD with a full trace: the catch-up exchange must be visible as
// request/reply wire records, and the trace must replay bit for bit —
// catch-up is part of the deterministic event stream like everything
// else.
func TestLongOutagePlanCatchUpTracedAndReplays(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	cfg := planBase(FD)
	cfg.Plan = longOutagePlan()
	cfg.Observers = []ObserverFactory{tr.Observer}
	var r Runner
	r.Steady(cfg)
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	text := buf.String()
	if !strings.Contains(text, "CatchUpReq[") {
		t.Fatal("trace records no catch-up requests; the recovered process never asked for its suffix")
	}
	if !strings.Contains(text, "CatchUpReply[") {
		t.Fatal("trace records no catch-up replies")
	}
	results, err := Replay(strings.NewReader(text))
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("replayed %d replications, want 2", len(results))
	}
	for _, res := range results {
		if !res.Match {
			t.Fatalf("replication (point %d, rep %d) diverged: recorded %#016x, replayed %#016x",
				res.Point, res.Rep, res.Recorded, res.Replayed)
		}
	}
}

// TestPlanTraceReplays records a planned sweep point and replays it from
// the trace alone: the header must carry the plan.
func TestPlanTraceReplays(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	cfg := planBase(GM)
	cfg.Plan = partitionHealPlan()
	cfg.Observers = []ObserverFactory{tr.Observer}
	var r Runner
	r.Steady(cfg)
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if !strings.Contains(buf.String(), `"plan":[{"kind":"partition"`) {
		t.Fatal("trace header does not embed the plan")
	}
	if !strings.Contains(buf.String(), "\nF ") {
		t.Fatal("trace body records no F (plan event) lines")
	}
	results, err := Replay(&buf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("replayed %d replications, want 2", len(results))
	}
	for _, res := range results {
		if !res.Match {
			t.Fatalf("replication (point %d, rep %d) diverged: recorded %#016x, replayed %#016x",
				res.Point, res.Rep, res.Recorded, res.Replayed)
		}
	}
}

// TestTraceMultiFlush appends two runs to one writer, one Flush each,
// and replays the whole stream: a Trace is reusable after Flush.
func TestTraceMultiFlush(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	cfg := planBase(FD)
	cfg.Replications = 1
	for i := 0; i < 2; i++ {
		c := cfg
		c.Observers = []ObserverFactory{tr.Observer}
		var r Runner
		r.Steady(c)
		if err := tr.Flush(); err != nil {
			t.Fatalf("flush %d: %v", i, err)
		}
	}
	results, err := Replay(&buf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("replayed %d replications across two flushes, want 2", len(results))
	}
}

// TestSweepPlansAxis checks the Plans axis expands innermost.
func TestSweepPlansAxis(t *testing.T) {
	plan := crashRecoverPlan()
	pts := Sweep{
		Base:       planBase(FD),
		Algorithms: []Algorithm{FD, GM},
		Plans:      []*FaultPlan{nil, plan},
	}.Points()
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	want := []struct {
		alg  Algorithm
		plan *FaultPlan
	}{{FD, nil}, {FD, plan}, {GM, nil}, {GM, plan}}
	for i, w := range want {
		if pts[i].Algorithm != w.alg || pts[i].Plan != w.plan {
			t.Fatalf("point %d = (%v, %p), want (%v, %p)", i, pts[i].Algorithm, pts[i].Plan, w.alg, w.plan)
		}
	}
}

// TestPlanValidation exercises the plan validator through Config.
func TestPlanValidation(t *testing.T) {
	bad := map[string]*FaultPlan{
		"pid out of range":   NewFaultPlan().Crash(time.Second, 9),
		"negative time":      NewFaultPlan().Crash(-time.Second, 1),
		"loss above one":     NewFaultPlan().Link(0, 0, 1, 1.5, 0),
		"self link":          NewFaultPlan().Link(0, 1, 1, 0.5, 0),
		"duplicate in group": NewFaultPlan().Partition(0, []proto.PID{0, 1}, []proto.PID{1}),
		"negative duration":  NewFaultPlan().Suspect(0, 1, -time.Second),
		"bad monitor":        NewFaultPlan().Suspect(0, 1, 0, proto.PID(7)),
	}
	for name, plan := range bad {
		cfg := planBase(FD)
		cfg.Plan = plan
		if err := cfg.withDefaults().Validate(); err == nil {
			t.Errorf("%s: validate accepted %v", name, plan.Events)
		}
	}
	good := planBase(FD)
	good.Plan = partitionHealPlan()
	if err := good.withDefaults().Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	// PreCrash events count against the f < n/2 bound like Crashed does.
	over := planBase(FD)
	over.Plan = NewFaultPlan().PreCrash(1).PreCrash(2).PreCrash(3)
	if err := over.withDefaults().Validate(); err == nil {
		t.Error("three pre-crashes of five accepted; want f < n/2 rejection")
	}
}

// TestTransientCrashObservedAsPlanEvent checks the crash-transient
// scenario fires its scripted crash through the shared fault machinery:
// a trace of a transient replication carries the F record.
func TestTransientCrashObservedAsPlanEvent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	cfg := TransientConfig{
		Config: Config{
			Algorithm:    FD,
			N:            3,
			Throughput:   50,
			QoS:          fd.QoS{TD: 10 * time.Millisecond},
			Seed:         1,
			Warmup:       300 * time.Millisecond,
			Drain:        5 * time.Second,
			Replications: 1,
			Observers:    []ObserverFactory{tr.Observer},
		},
		Crash:  0,
		Sender: 1,
	}
	var r Runner
	r.Transient(cfg)
	if err := tr.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if !strings.Contains(buf.String(), "F 300000000 crash p0\n") {
		t.Fatalf("transient trace records no plan event for the scripted crash:\n%.400s", buf.String())
	}
	results, err := Replay(&buf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(results) != 1 || !results[0].Match {
		t.Fatalf("transient replay = %+v", results)
	}
}
