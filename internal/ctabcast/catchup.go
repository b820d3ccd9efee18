package ctabcast

// Decision-log catch-up: the FD stack's recovery path for gaps that
// outlive the consensus instance window, mirroring the GM stack's state
// transfer.
//
// Every process appends each decided batch — IDs, payload references and
// the proposer — to a bounded decision log (Config.LogRetain entries,
// trimmed oldest-first). A process that falls behind detects its gap from
// the instance numbers piggy-backed on ordinary consensus traffic: a
// message for instance k proves its sender had delivered everything below
// k, so k strictly above our frontier is evidence of lag. Detection is
// two-fold:
//
//   - Passive: a message at least instanceWindow ahead of the frontier
//     means peers have garbage-collected the instances we need; ordinary
//     decision forwarding can never close that gap, so catch-up starts
//     immediately.
//   - Probed: Resume() — armed by the harness on Recover and on partition
//     Heal — checks after catchUpDelay whether any evidence of lag
//     accumulated and, if so, starts catch-up even for in-window gaps
//     (which otherwise wedge until a suspicion happens to trigger a
//     relay).
//
// Catch-up is a request/reply suffix transfer with deterministic
// timeout/retry over the simulated clock: CatchUpReq(from) goes to the
// most advanced peer observed; the reply carries the decision suffix
// [from, next) out of the responder's log, which the straggler re-delivers
// in order through the normal drain path. Retries rotate targets with
// doubling backoff (base catchUpRetry, capped), so a crashed responder
// only costs one timeout. If even the responder's log no longer reaches
// back to `from`, the reply degrades to a full-snapshot handoff: the
// retained suffix plus a copy of the responder's delivery tracker. The
// straggler delivers what the log still holds, adopts the tracker for the
// truncated prefix and jumps its frontier — the messages of the truncated
// prefix are a documented delivery gap at that process, the price of
// unwedging (GM's state transfer pays the same price by construction: a
// rejoiner only receives the current service state).

import (
	"fmt"
	"time"

	"repro/internal/proto"
)

const (
	defaultLogRetain = 1024
	// catchUpDelay is how long after Resume() the catch-up probe checks
	// for evidence of lag.
	catchUpDelay = 150 * time.Millisecond
	// catchUpRetry is the base retry backoff of the catch-up exchange
	// (doubling, capped).
	catchUpRetry = 100 * time.Millisecond
	// catchUpBackoffCap bounds the retry backoff at this multiple of
	// catchUpRetry.
	catchUpBackoffCap = 16
	// maxIdleProbes is how many consecutive probe checks may observe a
	// totally silent network before the probe stops waiting for evidence
	// and asks a peer directly. From the probing process's seat, "no lag
	// evidence" amid silence is indistinguishable from "everyone else is
	// idle too" — only a direct question settles it.
	maxIdleProbes = 2
)

// logEntry is one decided batch in the decision log. ids is the decision
// value in proposal order, shared (immutably) with the decisions map and
// any shipped replies; bodies is parallel to ids, nil where the batch
// re-decided an ID an earlier batch already delivered (the earlier
// entry carries the body).
type logEntry struct {
	ids      []proto.MsgID
	bodies   []any
	proposer proto.PID
}

// catchUpReq asks a peer for the decision suffix starting at instance
// From. Wire copies are pooled boxes, like consMsg.
type catchUpReq struct {
	From uint64

	refs int32
	home *Process
}

// Retain implements the network's pooled-payload protocol.
func (m *catchUpReq) Retain(n int) { m.refs += int32(n) }

// Release drops one in-flight copy reference, returning the box to its
// Process's free list when none remain.
func (m *catchUpReq) Release() {
	if m.refs--; m.refs == 0 && m.home != nil {
		m.home.reqFree = append(m.home.reqFree, m)
	}
}

// String renders the request for traces.
func (m catchUpReq) String() string { return fmt.Sprintf("CatchUpReq[from=%d]", m.From) }

// catchUpReply carries the decision suffix [Start, Start+len(Entries))
// plus the responder's frontier Next and its renumbering seed for
// instance Next. Snap is non-nil only on the full-snapshot fallback.
type catchUpReply struct {
	Start      uint64
	Next       uint64
	Entries    []logEntry
	Snap       *proto.TrackerSnapshot
	FirstCoord proto.PID

	refs int32
	home *Process
}

// Retain implements the network's pooled-payload protocol.
func (m *catchUpReply) Retain(n int) { m.refs += int32(n) }

// Release drops one in-flight copy reference, returning the box to its
// Process's free list when none remain.
func (m *catchUpReply) Release() {
	if m.refs--; m.refs == 0 && m.home != nil {
		m.Entries, m.Snap = nil, nil
		m.home.replyFree = append(m.home.replyFree, m)
	}
}

// String renders the reply for traces.
func (m catchUpReply) String() string {
	if m.Snap != nil {
		return fmt.Sprintf("CatchUpReply[%d..%d snap]", m.Start, m.Next)
	}
	return fmt.Sprintf("CatchUpReply[%d..%d]", m.Start, m.Next)
}

// reqBox draws a catchUpReq wire box from the process free list.
func (p *Process) reqBox(from uint64) *catchUpReq {
	if n := len(p.reqFree); n > 0 {
		b := p.reqFree[n-1]
		p.reqFree = p.reqFree[:n-1]
		b.From = from
		return b
	}
	return &catchUpReq{From: from, home: p}
}

// replyBox draws a catchUpReply wire box from the process free list.
func (p *Process) replyBox() *catchUpReply {
	if n := len(p.replyFree); n > 0 {
		b := p.replyFree[n-1]
		p.replyFree = p.replyFree[:n-1]
		return b
	}
	return &catchUpReply{home: p}
}

// appendLog records the batch the drain is about to deliver (instance
// nextDeliver) in the decision log, capturing bodies before delivery
// deletes them. The log is trimmed to LogRetain entries with hysteresis,
// always onto a fresh backing array so sub-slices shipped in earlier
// replies stay immutable.
func (p *Process) appendLog(ids []proto.MsgID) {
	bodies := make([]any, len(ids))
	for i, id := range ids {
		bodies[i] = p.bodies[id]
	}
	p.log = append(p.log, logEntry{ids: ids, bodies: bodies, proposer: p.proposers[p.nextDeliver]})
	slack := p.cfg.LogRetain / 2
	if len(p.log) <= p.cfg.LogRetain+slack {
		return
	}
	fresh := make([]logEntry, p.cfg.LogRetain, p.cfg.LogRetain+slack)
	drop := len(p.log) - p.cfg.LogRetain
	copy(fresh, p.log[drop:])
	p.log = fresh
	p.logStart += uint64(drop)
}

// noteInstance digests the lag evidence carried by every incoming
// consensus message: processes only send for instances up to their own
// frontier, so a message for instance k proves its sender delivered
// everything below k. A message a whole retention window ahead means the
// instances we need are already garbage-collected at peers — only the
// decision log can help, so catch-up starts immediately.
func (p *Process) noteInstance(from proto.PID, k uint64) {
	if from != p.rt.ID() && k > p.maxSeen {
		p.maxSeen = k
		p.maxSeenFrom = from
	}
	if k >= p.nextDeliver+instanceWindow {
		p.startCatchUp()
	}
}

// Resume arms the catch-up probe. The harness calls it when the process
// recovers from an outage and, on every live process, when a partition
// heals: after catchUpDelay the process checks whether evidence of lag
// has accumulated (a peer frontier above ours, or consensus messages
// buffered for instances we cannot build yet) and starts catch-up if so.
// With no evidence the probe's next move depends on what it heard in the
// meantime. Any received traffic that produced no evidence means the
// process is current, so the probe disarms silently — a process resumed
// into a live, healthy system sends nothing. Total silence is different:
// an idle system produces no evidence whether or not we are behind, so
// the probe re-arms, and after maxIdleProbes consecutive silent checks
// it sends one direct CatchUpReq anyway. The exchange self-terminates on
// the first reply (a current process sees the responder's matching
// frontier and stops), so probing a genuinely idle, current system costs
// one round trip. A newer Resume supersedes any probe chain in flight.
func (p *Process) Resume() {
	p.probeSeq++
	p.probeRx = p.rxCount
	p.probeIdle = 0
	p.armProbe(p.probeSeq)
}

// armProbe schedules the next probe check of chain seq.
func (p *Process) armProbe(seq uint64) {
	p.rt.After(catchUpDelay, func() { p.probeCatchUp(seq) })
}

// probeCatchUp is the Resume probe body.
func (p *Process) probeCatchUp(seq uint64) {
	if p.cuActive || seq != p.probeSeq {
		return
	}
	if p.maxSeen > p.nextDeliver || len(p.buffered) > 0 {
		p.startCatchUp()
		return
	}
	if p.rxCount != p.probeRx {
		// Traffic arrived since the probe was armed and none of it was
		// lag evidence: the process is current. Disarm silently.
		return
	}
	if len(p.all) == 1 {
		return // no peer to ask
	}
	p.probeIdle++
	if p.probeIdle >= maxIdleProbes {
		// The system has been silent for the whole probe window, twice
		// over: stop waiting for evidence that silence can never produce
		// and ask a peer directly. The exchange gets one evidence-free
		// rotation through the peers, so a crashed first target does not
		// kill it, and still terminates if every peer is down.
		p.startCatchUp()
		p.cuBlind = len(p.all) - 1
		return
	}
	p.probeRx = p.rxCount
	p.armProbe(seq)
}

// startCatchUp opens the catch-up exchange against the most advanced
// peer observed. Idempotent while active.
func (p *Process) startCatchUp() {
	if p.cuActive {
		return
	}
	p.cuActive = true
	p.cuBackoff = catchUpRetry
	p.cuBlind = 0
	p.cuTarget = p.maxSeenFrom
	p.sendCatchUpReq()
}

// sendCatchUpReq asks the current target for the suffix from our
// frontier and arms the retry timer: if the target crashed, or the
// request or reply was lost to a partition or link fault, the timer
// rotates to the next peer with doubled (capped) backoff.
func (p *Process) sendCatchUpReq() {
	if p.cuTarget == p.rt.ID() {
		p.cuTarget = proto.PID((int(p.cuTarget) + 1) % len(p.all))
	}
	p.rt.Send(p.cuTarget, p.reqBox(p.nextDeliver))
	p.cuSeq++
	seq := p.cuSeq
	d := p.cuBackoff
	if p.cuBackoff < catchUpBackoffCap*catchUpRetry {
		p.cuBackoff *= 2
	}
	p.rt.After(d, func() { p.onCatchUpRetry(seq) })
}

// onCatchUpRetry fires when a request went unanswered for a full backoff
// period. Evidence is re-checked first: the gap may have closed through
// ordinary operation (a late reply, or in-window decision forwarding).
// A forced (evidence-free) exchange instead spends its bounded cuBlind
// budget before giving up, so one crashed responder cannot strand it.
func (p *Process) onCatchUpRetry(seq uint64) {
	if !p.cuActive || seq != p.cuSeq {
		return
	}
	if p.maxSeen <= p.nextDeliver && len(p.buffered) == 0 {
		if p.cuBlind == 0 {
			p.stopCatchUp()
			return
		}
		p.cuBlind--
	}
	p.cuTarget = proto.PID((int(p.cuTarget) + 1) % len(p.all))
	p.sendCatchUpReq()
}

// stopCatchUp closes the exchange and strands any pending retry timer.
func (p *Process) stopCatchUp() {
	p.cuActive = false
	p.cuSeq++
}

// onCatchUpReq answers a straggler with the decision suffix from its
// frontier. If the log has been trimmed below the request, the reply
// degrades to the full-snapshot handoff: everything the log still holds
// plus a copy of the delivery tracker. Replies always carry the current
// frontier, so even an empty reply tells the requester where the
// responder stands.
func (p *Process) onCatchUpReq(from proto.PID, reqFrom uint64) {
	r := p.replyBox()
	r.Next = p.nextDeliver
	r.FirstCoord = p.firstCoord
	if reqFrom >= p.logStart {
		i := min(reqFrom-p.logStart, uint64(len(p.log)))
		r.Start = p.logStart + i
		r.Entries = p.log[i:len(p.log):len(p.log)]
	} else {
		r.Start = p.logStart
		r.Entries = p.log[0:len(p.log):len(p.log)]
		r.Snap = p.adelivered.Snapshot()
	}
	p.rt.Send(from, r)
}

// onCatchUpReply applies a suffix (or snapshot) reply. Replies are
// idempotent: duplicates and overlaps re-apply harmlessly — delivery is
// deduplicated by adelivered and the frontier never rewinds — so a slow
// responder answering after a retry already succeeded costs nothing.
func (p *Process) onCatchUpReply(r *catchUpReply) {
	before := p.nextDeliver
	if r.Snap != nil && r.Start > p.nextDeliver {
		p.applySnapshot(r)
	} else {
		p.applySuffix(r)
	}
	if !p.cuActive {
		return
	}
	if p.maxSeen <= p.nextDeliver && len(p.buffered) == 0 {
		p.stopCatchUp()
		return
	}
	if p.nextDeliver > before {
		// Still behind, but the reply made progress (decisions kept
		// landing while the suffix travelled): go again immediately from
		// the new frontier, re-targeting the most advanced peer. A reply
		// that made no progress instead waits for the armed retry timer,
		// which rotates targets.
		p.cuBackoff = catchUpRetry
		p.cuTarget = p.maxSeenFrom
		p.sendCatchUpReq()
	}
}

// applySuffix folds a contiguous decision suffix into the ordinary drain
// path: record each batch as a decision, stash its bodies, and drain.
func (p *Process) applySuffix(r *catchUpReply) {
	for i := range r.Entries {
		k := r.Start + uint64(i)
		if k < p.nextDeliver || k >= r.Next {
			continue
		}
		e := &r.Entries[i]
		if _, ok := p.decisions[k]; !ok {
			p.decisions[k] = e.ids
			p.proposers[k] = e.proposer
		}
		p.stashBodies(e)
	}
	p.drainDecisions()
}

// stashBodies makes a caught-up entry's payloads available to the drain.
// Decided IDs must not re-enter the pending set: they are already
// ordered, so stashing only fills the bodies map.
func (p *Process) stashBodies(e *logEntry) {
	for j, id := range e.ids {
		if e.bodies[j] == nil || p.adelivered.Seen(id) {
			continue
		}
		if _, have := p.bodies[id]; !have {
			p.bodies[id] = e.bodies[j]
		}
	}
}

// applySnapshot installs a full-snapshot handoff: the responder's log no
// longer reaches back to our frontier, so re-delivering every missed
// message is impossible. The retained suffix is delivered against our
// own dedup state first (merging the tracker earlier would mark those
// IDs seen and suppress their delivery), then the tracker covers the
// truncated prefix and the frontier jumps. The truncated prefix is a
// delivery gap at this process — the documented price of unwedging.
func (p *Process) applySnapshot(r *catchUpReply) {
	for i := range r.Entries {
		p.deliverEntry(&r.Entries[i])
	}
	p.adelivered.Merge(r.Snap)
	p.nextDeliver = r.Next
	p.firstCoord = r.FirstCoord
	// Adopt the responder's retained window as our own log: our previous
	// entries sit below the new frontier and the invariant
	// logStart+len(log) == nextDeliver must hold for our own replies.
	p.log = append(p.log[:0:0], r.Entries...)
	p.logStart = r.Start
	// Drop ordering state below the new frontier. Slot recycling order is
	// unobservable (slots are fully reset on reuse), so map iteration is
	// safe here.
	for k, s := range p.instances {
		if k < p.nextDeliver {
			s.inst.Close()
			delete(p.instances, k)
			p.slotFree = append(p.slotFree, s)
		}
	}
	for k := range p.decisions {
		if k < p.nextDeliver {
			delete(p.decisions, k)
			delete(p.proposers, k)
		}
	}
	for k := range p.buffered {
		if k < p.nextDeliver {
			delete(p.buffered, k)
		}
	}
	if p.oldest < p.nextDeliver {
		p.oldest = p.nextDeliver
	}
	// Pending messages the snapshot covers were delivered elsewhere:
	// withdraw them from future proposals and relays, in canonical order
	// so relay traffic cannot depend on map iteration.
	var done []proto.MsgID
	for id := range p.pending {
		if p.adelivered.Seen(id) {
			done = append(done, id)
		}
	}
	proto.SortMsgIDs(done)
	for _, id := range done {
		delete(p.pending, id)
		delete(p.bodies, id)
		p.rb.MarkStable(id)
	}
	p.drainDecisions()
}

// deliverEntry A-delivers one caught-up batch directly — the snapshot
// path cannot go through drainDecisions because the batch numbers lie
// beyond the contiguous frontier. Same per-batch semantics: sorted ID
// order, adelivered dedup, bodies preferred from local state.
func (p *Process) deliverEntry(e *logEntry) {
	p.sortScratch = append(p.sortScratch[:0], e.ids...)
	proto.SortMsgIDs(p.sortScratch)
	for _, id := range p.sortScratch {
		if !p.adelivered.Add(id) {
			continue
		}
		body := p.bodies[id]
		if body == nil {
			for j, eid := range e.ids {
				if eid == id {
					body = e.bodies[j]
					break
				}
			}
		}
		delete(p.bodies, id)
		delete(p.pending, id)
		p.rb.MarkStable(id)
		p.cfg.Deliver(id, body)
	}
}
