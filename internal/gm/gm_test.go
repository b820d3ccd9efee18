package gm

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
	"repro/internal/sim"
)

// fakeApp is a scripted gm.App that records lifecycle events and serves a
// trivial delivered-counter state.
type fakeApp struct {
	id        proto.PID
	unstable  []UnstableMsg
	views     []View
	flushes   [][]UnstableMsg
	excluded  int
	synced    []View
	delivered uint64
}

func (a *fakeApp) Unstable() []UnstableMsg { return a.unstable }

func (a *fakeApp) InstallView(v View, flush []UnstableMsg) {
	a.views = append(a.views, v)
	a.flushes = append(a.flushes, flush)
	a.delivered += uint64(len(flush))
}

func (a *fakeApp) Excluded(View) { a.excluded++ }

func (a *fakeApp) SyncRequest() uint64 { return a.delivered }

func (a *fakeApp) SyncPayload(after uint64) any { return a.delivered - after }

func (a *fakeApp) InstallSync(v View, payload any) {
	a.synced = append(a.synced, v)
	if missing, ok := payload.(uint64); ok {
		a.delivered += missing
	}
}

// gmHandler adapts a GM to proto.Handler for standalone testing.
type gmHandler struct {
	g       *GM
	initial View
}

func (h *gmHandler) Init() { h.g.Start(h.initial) }

func (h *gmHandler) OnMessage(from proto.PID, payload any) {
	if !h.g.OnMessage(from, payload) {
		panic("gmHandler: unexpected payload")
	}
}

func (h *gmHandler) OnSuspect(p proto.PID) { h.g.OnSuspect(p) }
func (h *gmHandler) OnTrust(p proto.PID)   { h.g.OnTrust(p) }

type rig struct {
	eng  *sim.Engine
	sys  *proto.System
	gms  []*GM
	apps []*fakeApp
}

func newRig(n int, qos fd.QoS, initial []proto.PID) *rig {
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(n), qos, sim.NewRand(1))
	r := &rig{eng: eng, sys: sys, gms: make([]*GM, n), apps: make([]*fakeApp, n)}
	if initial == nil {
		initial = make([]proto.PID, n)
		for i := range initial {
			initial[i] = proto.PID(i)
		}
	}
	for i := 0; i < n; i++ {
		app := &fakeApp{id: proto.PID(i)}
		g := New(sys.Proc(proto.PID(i)))
		g.SetApp(app)
		r.gms[i] = g
		r.apps[i] = app
		sys.SetHandler(proto.PID(i), &gmHandler{g: g, initial: View{ID: 1, Members: initial}})
	}
	sys.Start()
	return r
}

func (r *rig) run(d time.Duration) { r.eng.RunUntil(sim.Time(0).Add(d)) }

func ms(v float64) sim.Time { return sim.Time(0).Add(sim.Millis(v)) }

func TestInitialViewInstalled(t *testing.T) {
	r := newRig(3, fd.QoS{}, nil)
	r.run(time.Second)
	for i, g := range r.gms {
		v := g.View()
		if v.ID != 1 || len(v.Members) != 3 {
			t.Fatalf("p%d view = %v", i, v)
		}
		if !g.Normal() || !g.IsMember() {
			t.Fatalf("p%d not in normal member state", i)
		}
	}
}

func TestCrashExcludesMemberEverywhere(t *testing.T) {
	r := newRig(3, fd.QoS{TD: 5 * time.Millisecond}, nil)
	r.sys.CrashAt(2, ms(10))
	r.run(time.Second)
	for i := 0; i < 2; i++ {
		v := r.gms[i].View()
		if v.ID != 2 || v.Contains(2) {
			t.Fatalf("p%d view = %v, want v2 without p2", i, v)
		}
	}
	// Survivors saw exactly one install each.
	for i := 0; i < 2; i++ {
		if len(r.apps[i].views) != 1 {
			t.Fatalf("p%d installs = %d, want 1", i, len(r.apps[i].views))
		}
	}
}

func TestViewAgreement(t *testing.T) {
	// Multiple overlapping suspicions: all members see the same sequence
	// of views.
	r := newRig(5, fd.QoS{TD: 5 * time.Millisecond}, nil)
	r.sys.CrashAt(4, ms(10))
	r.sys.CrashAt(3, ms(12))
	r.run(2 * time.Second)
	var ref []View
	for i := 0; i < 3; i++ {
		views := r.apps[i].views
		if ref == nil {
			ref = views
			continue
		}
		if !reflect.DeepEqual(viewsOf(views), viewsOf(ref)) {
			t.Fatalf("view sequences differ: %v vs %v", views, ref)
		}
	}
	final := r.gms[0].View()
	if final.Contains(3) || final.Contains(4) {
		t.Fatalf("final view %v still contains crashed members", final)
	}
	if final.Primary() != 0 {
		t.Fatalf("sequencer = %d, want 0", final.Primary())
	}
}

func viewsOf(vs []View) [][]proto.PID {
	out := make([][]proto.PID, len(vs))
	for i, v := range vs {
		out[i] = v.Members
	}
	return out
}

func TestMemberOrderPreservedAcrossChanges(t *testing.T) {
	// Excluding the middle member keeps the others' relative order, so
	// the sequencer does not move.
	r := newRig(3, fd.QoS{TD: 5 * time.Millisecond}, nil)
	r.sys.CrashAt(1, ms(10))
	r.run(time.Second)
	v := r.gms[0].View()
	want := []proto.PID{0, 2}
	if !reflect.DeepEqual(v.Members, want) {
		t.Fatalf("members = %v, want %v", v.Members, want)
	}
}

func TestInstantMistakeExcludesAndRejoins(t *testing.T) {
	// TM = 0: even an instantaneous wrong suspicion excludes its target —
	// the view change "reacts the same way as to a real crash" (§4.4) —
	// and the target rejoins immediately, since the mistake is already
	// over. Net cost: an exclusion change plus a join change, the Fig. 6
	// TM=0 per-mistake price.
	r := newRig(3, fd.QoS{}, nil)
	r.eng.Schedule(ms(10), func() { r.sys.FDs.InjectMistake(1, 0, 0) })
	r.run(time.Second)
	v := r.gms[1].View()
	if len(v.Members) != 3 {
		t.Fatalf("view = %v, want all members back after the rejoin", v)
	}
	if v.ID < 3 {
		t.Fatalf("view ID = %d, want >= 3 (exclusion + join)", v.ID)
	}
	if r.apps[0].excluded != 1 {
		t.Fatalf("p0 excluded %d times, want exactly 1", r.apps[0].excluded)
	}
	if len(r.apps[0].synced) != 1 {
		t.Fatalf("p0 synced %d times, want 1", len(r.apps[0].synced))
	}
	// The rejoined ex-sequencer sits at the back; p1 now sequences.
	if v.Primary() != 1 || v.Members[2] != 0 {
		t.Fatalf("members = %v, want [1 2 0]", v.Members)
	}
}

func TestLongMistakeExcludesAndRejoins(t *testing.T) {
	r := newRig(3, fd.QoS{}, nil)
	r.eng.Schedule(ms(10), func() { r.sys.FDs.InjectMistake(1, 2, 80*time.Millisecond) })
	r.run(2 * time.Second)
	// p2 was excluded once and rejoined via InstallSync.
	if r.apps[2].excluded != 1 {
		t.Fatalf("p2 excluded %d times, want 1", r.apps[2].excluded)
	}
	if len(r.apps[2].synced) != 1 {
		t.Fatalf("p2 synced %d times, want 1", len(r.apps[2].synced))
	}
	final := r.gms[0].View()
	if !final.Contains(2) {
		t.Fatalf("final view %v does not contain the rejoined p2", final)
	}
	// Rejoined members go to the back: sequencer unchanged.
	if final.Primary() != 0 {
		t.Fatalf("sequencer = %d, want 0", final.Primary())
	}
	if final.Members[len(final.Members)-1] != 2 {
		t.Fatalf("members = %v, want p2 appended last", final.Members)
	}
}

func TestFlushUnionReachesInstall(t *testing.T) {
	// A message known only to p1 (unstable) must appear in everyone's
	// install flush.
	r := newRig(3, fd.QoS{TD: 5 * time.Millisecond}, nil)
	um := UnstableMsg{ID: proto.MsgID{Origin: 1, Seq: 9}, Seq: -1, Body: "orphan"}
	r.apps[1].unstable = []UnstableMsg{um}
	r.sys.CrashAt(2, ms(10))
	r.run(time.Second)
	for i := 0; i < 2; i++ {
		if len(r.apps[i].flushes) != 1 {
			t.Fatalf("p%d flush sets = %d, want 1", i, len(r.apps[i].flushes))
		}
		flush := r.apps[i].flushes[0]
		found := false
		for _, got := range flush {
			if got.ID == um.ID && got.Body == "orphan" {
				found = true
			}
		}
		if !found {
			t.Fatalf("p%d install flush %v missing the orphan message", i, flush)
		}
	}
}

func TestFlushPrefersSequencedEntry(t *testing.T) {
	// Two flushes mention the same ID; the one with a sequence number
	// must win the merge, and sequenced entries precede unsequenced.
	g := &GM{flushes: map[proto.PID][]UnstableMsg{
		0: {{ID: proto.MsgID{Origin: 0, Seq: 1}, Seq: -1, Body: "x"}},
		1: {{ID: proto.MsgID{Origin: 0, Seq: 1}, Seq: 4, Body: "x"},
			{ID: proto.MsgID{Origin: 2, Seq: 7}, Seq: -1, Body: "y"}},
	}}
	merged := g.mergeFlushes()
	if len(merged) != 2 {
		t.Fatalf("merged = %v, want 2 entries", merged)
	}
	if merged[0].Seq != 4 {
		t.Fatalf("first entry = %+v, want the sequenced one", merged[0])
	}
	if merged[1].Seq != -1 || merged[1].Body != "y" {
		t.Fatalf("second entry = %+v, want the unsequenced one", merged[1])
	}
}

func TestPathologicalDetectorCannotEvictMajority(t *testing.T) {
	// p1 wrongly suspects both peers for 300 ms: honoring its exclusion
	// demands would evict a majority, so the primary-partition fallback
	// keeps the group live (at the price of churn). Once the mistake
	// ends, everyone converges on a common view containing a majority.
	r := newRig(3, fd.QoS{}, nil)
	r.eng.Schedule(ms(10), func() {
		r.sys.FDs.InjectMistake(1, 0, 300*time.Millisecond)
		r.sys.FDs.InjectMistake(1, 2, 300*time.Millisecond)
	})
	r.run(5 * time.Second)
	v0 := r.gms[0].View()
	if len(v0.Members) < 2 {
		t.Fatalf("final view %v lost the primary partition", v0)
	}
	for i := 1; i < 3; i++ {
		if !r.gms[i].IsMember() {
			continue // a process may legitimately end excluded mid-rejoin
		}
		if !reflect.DeepEqual(r.gms[i].View(), v0) {
			t.Fatalf("p%d view %v != p0 view %v after settling", i, r.gms[i].View(), v0)
		}
	}
}

func TestJoinRetryUntilWelcomed(t *testing.T) {
	// A process outside the initial view joins via the retry loop.
	r := newRig(3, fd.QoS{}, []proto.PID{0, 1})
	r.run(2 * time.Second)
	v := r.gms[0].View()
	if !v.Contains(2) {
		t.Fatalf("view %v never admitted p2", v)
	}
	if len(r.apps[2].synced) != 1 {
		t.Fatalf("p2 synced %d times, want 1", len(r.apps[2].synced))
	}
	if r.gms[2].View().ID != r.gms[0].View().ID {
		t.Fatalf("joiner view %v != member view %v", r.gms[2].View(), r.gms[0].View())
	}
}

func TestStartValidation(t *testing.T) {
	eng := sim.New()
	sys := proto.NewSystem(eng, netmodel.DefaultConfig(1), fd.QoS{}, sim.NewRand(1))
	g := New(sys.Proc(0))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Start before SetApp did not panic")
			}
		}()
		g.Start(View{ID: 1, Members: []proto.PID{0}})
	}()
	g.SetApp(&fakeApp{})
	g.Start(View{ID: 1, Members: []proto.PID{0}})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Start did not panic")
			}
		}()
		g.Start(View{ID: 1, Members: []proto.PID{0}})
	}()
}

func TestViewHelpers(t *testing.T) {
	v := View{ID: 3, Members: []proto.PID{2, 0, 4}}
	if !v.Contains(4) || v.Contains(1) {
		t.Fatal("Contains broken")
	}
	if v.Primary() != 2 {
		t.Fatalf("Primary = %d, want 2 (first in order)", v.Primary())
	}
	c := v.clone()
	c.Members[0] = 9
	if v.Members[0] != 2 {
		t.Fatal("clone shares backing array")
	}
}

func TestConcurrentSuspicionsMergeIntoOneChange(t *testing.T) {
	// Both survivors suspect the crashed process at the same instant
	// (same TD): one view change, not two.
	r := newRig(3, fd.QoS{TD: 5 * time.Millisecond}, nil)
	r.sys.CrashAt(0, ms(10))
	r.run(time.Second)
	for i := 1; i < 3; i++ {
		if len(r.apps[i].views) != 1 {
			t.Fatalf("p%d installed %d views, want 1", i, len(r.apps[i].views))
		}
		if got := r.gms[i].View(); got.ID != 2 || got.Primary() != 1 {
			t.Fatalf("p%d view = %v, want v2 led by p1", i, got)
		}
	}
}

func TestViewString(t *testing.T) {
	v := View{ID: 3, Members: []proto.PID{0, 2, 4}}
	if got := v.String(); got != "v3[0 2 4]" {
		t.Fatalf("String() = %q", got)
	}
}

func TestStaleFlushIgnored(t *testing.T) {
	// A flush for a long-installed change must be dropped silently.
	r := newRig(3, fd.QoS{TD: 5 * time.Millisecond}, nil)
	r.sys.CrashAt(2, ms(10))
	r.run(time.Second)
	g := r.gms[0]
	before := g.View()
	g.OnMessage(1, MsgFlush{VC: 0, Unstable: nil}) // ancient change
	if got := g.View(); !reflect.DeepEqual(got, before) {
		t.Fatalf("stale flush changed the view: %v -> %v", before, got)
	}
}

func TestFutureChangeMessagesBufferedAndReplayed(t *testing.T) {
	// Two back-to-back crashes: messages for change #2 can reach a
	// member before it has installed view 2; they must be buffered and
	// replayed, not lost (the replayFuture path).
	r := newRig(5, fd.QoS{TD: 5 * time.Millisecond}, nil)
	r.sys.CrashAt(4, ms(10))
	r.sys.CrashAt(3, ms(11))
	r.run(2 * time.Second)
	// All survivors agree on the final view, which excludes both.
	final := r.gms[0].View()
	if final.Contains(3) || final.Contains(4) {
		t.Fatalf("final view %v contains crashed members", final)
	}
	for i := 1; i < 3; i++ {
		if !reflect.DeepEqual(r.gms[i].View(), final) {
			t.Fatalf("p%d view %v != %v", i, r.gms[i].View(), final)
		}
	}
}
