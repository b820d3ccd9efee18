package ctabcast

import (
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/netmodel"
	"repro/internal/proto"
)

// TestLongOutageRecoveryDeliversSuffix is the silent-wedge regression
// guard: a process that recovers after missing more than instanceWindow
// decisions must still deliver the full suffix it missed. Peers have
// garbage-collected the consensus instances it needs, so ordinary
// decision forwarding cannot help — only the decision-log catch-up
// protocol can close the gap.
func TestLongOutageRecoveryDeliversSuffix(t *testing.T) {
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 10 * time.Millisecond}})
	c.sys.CrashAt(2, at(100))
	// 150 spaced broadcasts while p2 is down — each far enough apart to
	// decide its own consensus instance, so the outage spans well over
	// instanceWindow (64) decisions.
	for i := 0; i < 150; i++ {
		c.broadcastAt(proto.PID(i%2), at(float64(150+15*i)))
	}
	recoverAt := at(2600)
	c.eng.Schedule(recoverAt, func() { c.sys.Recover(2, nil) })
	// The scenario is only meaningful if the gap really exceeds the
	// retention window at recovery time.
	c.eng.Schedule(recoverAt.Add(time.Millisecond), func() {
		gap := c.procs[0].NextInstance() - c.procs[2].NextInstance()
		if gap <= instanceWindow {
			t.Errorf("outage spanned only %d decisions, want > instanceWindow (%d)",
				gap, instanceWindow)
		}
	})
	// Post-recovery traffic: the straggler sees live consensus messages
	// tagged with instance numbers far beyond its own frontier — the
	// evidence that it is behind.
	for i := 0; i < 6; i++ {
		c.broadcastAt(proto.PID(i%3), recoverAt.Add(time.Duration(30*(i+1))*time.Millisecond))
	}
	c.run(20 * time.Second)
	c.checkTotalOrder(t)
	// The recovered process must hold the complete sequence: everything
	// decided during the outage plus everything after recovery.
	c.checkAllDelivered(t)
}

// TestIdleSystemRecoveryUnwedges is the idle-wedge regression guard: a
// process that recovers into a *totally quiet* system sees no consensus
// traffic at all, so no lag evidence ever accumulates — neither the
// passive window trigger nor the evidence-gated probe can fire. The
// probe must not disarm forever on "no evidence": after a bounded number
// of idle checks it has to ask a peer directly, because from the
// straggler's seat "nothing to catch up on" and "everyone else is quiet"
// are indistinguishable.
func TestIdleSystemRecoveryUnwedges(t *testing.T) {
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 10 * time.Millisecond}})
	c.sys.CrashAt(2, at(100))
	// An outage spanning far more than instanceWindow decisions, exactly
	// like the long-outage scenario — but every broadcast has long
	// drained before the recovery instant, and nothing follows it.
	for i := 0; i < 150; i++ {
		c.broadcastAt(proto.PID(i%2), at(float64(150+15*i)))
	}
	recoverAt := at(4000)
	c.eng.Schedule(recoverAt, func() {
		c.sys.Recover(2, nil)
		// The harness arms the probe on recovery, as the experiment
		// layer's Recover path does.
		c.procs[2].Resume()
	})
	c.run(20 * time.Second)
	c.checkTotalOrder(t)
	// The recovered process must deliver the entire missed suffix even
	// though no post-recovery traffic ever supplied lag evidence.
	c.checkAllDelivered(t)
}

// TestIdleProbeOnCurrentProcessIsBounded: a process that is fully
// current when Resume fires in a quiet system still ends up asking a
// peer (it cannot know it is current), but the exchange must terminate
// on the first reply and send only a bounded handful of requests — no
// periodic polling, no endless retries.
func TestIdleProbeOnCurrentProcessIsBounded(t *testing.T) {
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 10 * time.Millisecond}})
	for i := 0; i < 20; i++ {
		c.broadcastAt(proto.PID(i%3), at(float64(50+15*i)))
	}
	reqs := 0
	c.sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		if ev.Kind == netmodel.TraceSend {
			if _, ok := ev.Payload.(*catchUpReq); ok {
				reqs++
			}
		}
	})
	// Long after everything drained: Resume a process that missed nothing.
	c.eng.Schedule(at(3000), func() { c.procs[1].Resume() })
	c.run(20 * time.Second)
	if reqs == 0 {
		t.Fatal("idle probe never asked a peer: the idle wedge is back")
	}
	if reqs > 3 {
		t.Fatalf("current process sent %d catch-up requests, want a bounded handful", reqs)
	}
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
}

// TestCatchUpRetriesAfterResponderCrash exercises the retry path: the
// first catch-up request goes to a peer that has just crashed, so the
// exchange only completes because the retry timer rotates to a live
// responder.
func TestCatchUpRetriesAfterResponderCrash(t *testing.T) {
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 10 * time.Millisecond}})
	reqTo := make([]int, 3)
	c.sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		if ev.Kind == netmodel.TraceSend && ev.To >= 0 {
			if _, ok := ev.Payload.(*catchUpReq); ok {
				reqTo[ev.To]++
			}
		}
	})
	c.sys.CrashAt(2, at(100))
	for i := 0; i < 150; i++ {
		c.broadcastAt(proto.PID(i%2), at(float64(150+15*i)))
	}
	c.sys.CrashAt(1, at(2500))
	recoverAt := at(2600)
	c.eng.Schedule(recoverAt, func() { c.sys.Recover(2, nil) })
	// The system is otherwise idle after p1's crash, so no passive
	// evidence flows; start the exchange directly, aimed at the freshly
	// crashed p1 — the worst possible first target.
	c.eng.Schedule(recoverAt.Add(time.Millisecond), func() {
		p := c.procs[2]
		p.maxSeen = c.procs[0].NextInstance() - 1
		p.maxSeenFrom = 1
		p.startCatchUp()
	})
	c.run(20 * time.Second)
	if reqTo[1] == 0 {
		t.Fatal("scenario broken: no catch-up request ever went to the crashed responder")
	}
	if reqTo[0] == 0 {
		t.Fatal("retry never rotated to a live responder")
	}
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
}

// TestTruncatedLogSnapshotFallback forces the full-snapshot handoff: with
// a tiny LogRetain the responders have trimmed the prefix the straggler
// needs, so the reply must carry a tracker snapshot. The straggler
// unwedges — it delivers the retained tail and everything after recovery
// — at the documented price of a delivery gap over the truncated prefix.
func TestTruncatedLogSnapshotFallback(t *testing.T) {
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 10 * time.Millisecond}, logRetain: 16})
	snapReplies := 0
	c.sys.Net.SetTrace(func(ev netmodel.TraceEvent) {
		if ev.Kind != netmodel.TraceSend {
			return
		}
		if r, ok := ev.Payload.(*catchUpReply); ok && r.Snap != nil {
			snapReplies++
		}
	})
	c.sys.CrashAt(2, at(100))
	for i := 0; i < 150; i++ {
		c.broadcastAt(proto.PID(i%2), at(float64(150+15*i)))
	}
	recoverAt := at(2600)
	c.eng.Schedule(recoverAt, func() { c.sys.Recover(2, nil) })
	for i := 0; i < 6; i++ {
		c.broadcastAt(proto.PID(i%3), recoverAt.Add(time.Duration(30*(i+1))*time.Millisecond))
	}
	c.run(20 * time.Second)
	if snapReplies == 0 {
		t.Fatal("expected at least one full-snapshot fallback reply")
	}
	p0, p2 := c.ids(0), c.ids(2)
	if len(p2) == 0 {
		t.Fatal("recovered process stayed wedged: delivered nothing")
	}
	if len(p2) >= len(p0) {
		t.Fatalf("expected a truncated prefix at p2: p2 delivered %d, p0 %d", len(p2), len(p0))
	}
	// Everything p2 did deliver is the exact tail of the total order.
	tail := p0[len(p0)-len(p2):]
	for i := range p2 {
		if p2[i] != tail[i] {
			t.Fatalf("suffix mismatch at %d: p2 has %v, total order has %v", i, p2[i], tail[i])
		}
	}
	// No post-recovery message may fall in the gap.
	got := make(map[proto.MsgID]bool, len(p2))
	for _, id := range p2 {
		got[id] = true
	}
	for id, sentAt := range c.sent {
		if sentAt >= recoverAt && !got[id] {
			t.Fatalf("post-recovery message %v never delivered at the recovered process", id)
		}
	}
}

// TestDuplicateCatchUpRepliesHarmless injects an unsolicited, duplicated
// suffix reply: p0 answers a request p2 never sent, twice. The first copy
// catches p2 up; the second must be a no-op — replies are idempotent, so
// nothing is delivered twice and the frontier never rewinds.
func TestDuplicateCatchUpRepliesHarmless(t *testing.T) {
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 10 * time.Millisecond}})
	c.sys.CrashAt(2, at(100))
	for i := 0; i < 150; i++ {
		c.broadcastAt(proto.PID(i%2), at(float64(150+15*i)))
	}
	recoverAt := at(2600)
	c.eng.Schedule(recoverAt, func() { c.sys.Recover(2, nil) })
	c.eng.Schedule(recoverAt.Add(5*time.Millisecond), func() {
		c.procs[0].onCatchUpReq(2, c.procs[2].NextInstance())
		c.procs[0].onCatchUpReq(2, c.procs[2].NextInstance())
	})
	for i := 0; i < 6; i++ {
		c.broadcastAt(proto.PID(i%3), recoverAt.Add(time.Duration(30*(i+1))*time.Millisecond))
	}
	c.run(20 * time.Second)
	seen := make(map[proto.MsgID]bool)
	for _, d := range c.deliveries[2] {
		if seen[d.id] {
			t.Fatalf("duplicate delivery of %v at recovered process", d.id)
		}
		seen[d.id] = true
	}
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
}

// TestCatchUpRacesNewDecisions keeps new broadcasts landing throughout
// the catch-up exchange: every suffix reply arrives slightly stale
// because decisions kept happening while it travelled, so the requester
// must keep going from its new frontier until it converges with the
// moving tip.
func TestCatchUpRacesNewDecisions(t *testing.T) {
	c := newCluster(clusterOpts{n: 3, qos: fd.QoS{TD: 10 * time.Millisecond}})
	c.sys.CrashAt(2, at(100))
	for i := 0; i < 150; i++ {
		c.broadcastAt(proto.PID(i%2), at(float64(150+15*i)))
	}
	recoverAt := at(2600)
	c.eng.Schedule(recoverAt, func() { c.sys.Recover(2, nil) })
	// Dense traffic from the moment of recovery: the exchange races a
	// constantly advancing frontier.
	for i := 0; i < 60; i++ {
		c.broadcastAt(proto.PID(i%2), recoverAt.Add(time.Duration(5+5*i)*time.Millisecond))
	}
	c.run(20 * time.Second)
	c.checkTotalOrder(t)
	c.checkAllDelivered(t)
}
