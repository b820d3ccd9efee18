// Package ctabcast implements the Chandra–Toueg uniform atomic broadcast
// algorithm — the paper's "FD algorithm" (§4.1). It uses unreliable
// failure detectors directly:
//
//   - A-broadcast(m) reliably broadcasts m to all processes (one multicast
//     in the common case, see internal/rbcast).
//   - Received messages are buffered until their delivery position is
//     decided by a sequence of consensus instances #1, #2, ...; the value
//     of each instance is a set of message IDs.
//   - The messages decided by instance k are A-delivered before those of
//     instance k+1, and within a batch in the deterministic ID order.
//
// Aggregation falls out naturally: while instance k runs, arriving
// messages accumulate and instance k+1 orders them all at once — the
// mechanism that lets the algorithm "tolerate high load" (§4).
//
// The package also implements the crash-steady optimisation of §7: each
// decision carries its proposer, and subsequent instances rotate their
// coordinator order to start at that proposer, so crashed processes
// eventually stop being round-1 coordinators at no extra message cost.
package ctabcast

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/proto"
	"repro/internal/rbcast"
)

// consMsg tags a consensus message with its instance number. Wire copies
// travel as *consMsg boxes drawn from the sending Process's free list
// (the netmodel pooled-payload protocol): receivers copy K and M out
// before returning, and the box is recycled when its last in-flight copy
// is delivered or dropped.
type consMsg struct {
	K uint64
	M consensus.Msg

	refs int32
	home *Process
}

// Retain implements the network's pooled-payload protocol.
func (m *consMsg) Retain(n int) { m.refs += int32(n) }

// Release drops one in-flight copy reference, returning the box to its
// Process's free list when none remain.
func (m *consMsg) Release() {
	if m.refs--; m.refs == 0 && m.home != nil {
		m.M = nil
		m.home.msgFree = append(m.home.msgFree, m)
	}
}

// String names the wrapped message for traces: "MsgPropose[k=3]". The
// value receiver keeps the pooled pointer box rendering exactly like the
// value payload it replaced.
func (m consMsg) String() string {
	name := fmt.Sprintf("%T", m.M)
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s[k=%d]", name, m.K)
}

// Config parameterises the FD algorithm at one process.
type Config struct {
	// Deliver is the A-deliver upcall, invoked in total order.
	Deliver func(id proto.MsgID, body any)
	// Renumber enables the coordinator renumbering optimisation: the
	// proposer of decision k coordinates round 1 of instance k+1. All
	// processes must agree on this setting.
	Renumber bool
	// LogRetain bounds the decision log kept for catch-up suffix
	// transfer — the recovery path for gaps wider than instanceWindow
	// (see catchup.go). It should exceed instanceWindow by a comfortable
	// margin; a straggler whose gap outgrows even the log falls back to
	// the full-snapshot handoff. Zero selects a sensible default.
	LogRetain int
}

// instanceWindow bounds how many finished consensus instances are
// retained for decision forwarding to stragglers.
const instanceWindow = 64

// Process is the FD atomic broadcast endpoint at one process. It
// implements proto.Handler.
type Process struct {
	rt  proto.Runtime
	cfg Config
	rb  *rbcast.Broadcaster

	all []proto.PID // all process IDs, the fixed participant set

	pending    map[proto.MsgID]struct{} // received, not yet A-delivered
	bodies     map[proto.MsgID]any
	adelivered *proto.IDTracker

	instances   map[uint64]*instSlot
	decisions   map[uint64][]proto.MsgID
	proposers   map[uint64]proto.PID
	buffered    map[uint64][]bufferedMsg // consensus msgs for instances we cannot build yet
	nextDeliver uint64                   // lowest instance whose decision is still undelivered
	firstCoord  proto.PID                // round-1 coordinator of instance nextDeliver
	oldest      uint64                   // lowest retained instance

	// Decision log and catch-up state (see catchup.go). The log covers
	// instances [logStart, logStart+len(log)), and logStart+len(log) ==
	// nextDeliver always holds.
	log         []logEntry
	logStart    uint64
	maxSeen     uint64        // highest instance seen in peer consensus traffic
	maxSeenFrom proto.PID     // sender of that traffic: the most advanced peer known
	cuActive    bool          // a catch-up exchange is in progress
	cuTarget    proto.PID     // peer currently asked
	cuBackoff   time.Duration // next retry delay
	cuSeq       uint64        // strands stale retry timers
	cuBlind     int           // evidence-free retries left (forced exchanges only)
	rxCount     uint64        // messages received, ever: the probe's idleness signal
	probeSeq    uint64        // strands superseded Resume probe chains
	probeRx     uint64        // rxCount when the live probe chain was (re)armed
	probeIdle   int           // consecutive probes that saw zero traffic

	// Free lists and cached callbacks: the high-rate allocation sites of
	// the hot path, each reused across instances and messages.
	msgFree     []*consMsg      // recycled consMsg wire boxes
	reqFree     []*catchUpReq   // recycled catch-up request boxes
	replyFree   []*catchUpReply // recycled catch-up reply boxes
	slotFree    []*instSlot     // recycled instance slots (GC'd instances)
	sortScratch []proto.MsgID
	suspectsFn  func(proto.PID) bool
	refreshFn   func() consensus.Value
}

// instSlot bundles one consensus instance with its per-instance
// callbacks, so a garbage-collected instance can be reset and reused —
// transport, decide closure and all — instead of reallocated. The
// transport is addressed as &slot.tr (a pointer into the slot), which
// boxes into the Transport interface without allocating, and the decide
// closure reads slot.tr.k at call time, so retargeting the slot to a new
// instance number is one field write.
type instSlot struct {
	inst   *consensus.Instance
	tr     consTransport
	decide func(v consensus.Value, proposer proto.PID)
}

type bufferedMsg struct {
	from proto.PID
	m    consensus.Msg
}

var _ proto.Handler = (*Process)(nil)

// New creates the FD algorithm endpoint for the process behind rt.
func New(rt proto.Runtime, cfg Config) *Process {
	if cfg.Deliver == nil {
		panic("ctabcast: nil Deliver")
	}
	if cfg.LogRetain <= 0 {
		cfg.LogRetain = defaultLogRetain
	}
	p := &Process{
		rt:          rt,
		cfg:         cfg,
		pending:     make(map[proto.MsgID]struct{}),
		bodies:      make(map[proto.MsgID]any),
		adelivered:  proto.NewIDTracker(),
		instances:   make(map[uint64]*instSlot),
		decisions:   make(map[uint64][]proto.MsgID),
		proposers:   make(map[uint64]proto.PID),
		buffered:    make(map[uint64][]bufferedMsg),
		nextDeliver: 1,
		oldest:      1,
		logStart:    1,
	}
	p.all = make([]proto.PID, rt.N())
	for i := range p.all {
		p.all[i] = proto.PID(i)
	}
	// Bind the per-process callbacks once: a method value or closure built
	// inside instance() would allocate on every instance.
	p.suspectsFn = rt.Suspects
	p.refreshFn = func() consensus.Value {
		if len(p.pending) == 0 {
			return nil
		}
		return p.proposal()
	}
	p.rb = rbcast.New(rbcast.Config{
		Self:      rt.ID(),
		Multicast: func(m *rbcast.Msg) { rt.Multicast(m) },
		Deliver:   p.onRBDeliver,
	})
	return p
}

// Init implements proto.Handler.
func (p *Process) Init() {}

// ABroadcast atomically broadcasts body and returns its message ID.
func (p *Process) ABroadcast(body any) proto.MsgID {
	return p.rb.Broadcast(body)
}

// OnMessage implements proto.Handler.
func (p *Process) OnMessage(from proto.PID, payload any) {
	p.rxCount++
	switch m := payload.(type) {
	case *rbcast.Msg:
		p.rb.OnMessage(*m)
	case *consMsg:
		// Copy K and M out of the pooled box before it is released.
		p.onConsensusMsg(from, m.K, m.M)
	case *catchUpReq:
		p.onCatchUpReq(from, m.From)
	case *catchUpReply:
		// Handled synchronously before the pooled box is released; entry
		// slices taken from it are immutable shares of the responder's
		// log, the established cross-process idiom for decided values.
		p.onCatchUpReply(m)
	default:
		panic(fmt.Sprintf("ctabcast: unknown payload %T", payload))
	}
}

// OnSuspect implements proto.Handler: suspicion edges feed the reliable
// broadcast relay and every live consensus instance.
func (p *Process) OnSuspect(q proto.PID) {
	p.rb.OnSuspect(q)
	// Notify instances in ascending order: a suspicion can make an
	// instance send (round change), and send order must not depend on map
	// iteration order or simulations become nondeterministic.
	ks := make([]uint64, 0, len(p.instances))
	for k := range p.instances {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	for _, k := range ks {
		p.instances[k].inst.OnSuspect(q)
	}
}

// OnTrust implements proto.Handler. The FD algorithm is insensitive to
// trust edges: a burned round is never revisited.
func (p *Process) OnTrust(proto.PID) {}

// Pending returns the number of messages awaiting ordering (diagnostics).
func (p *Process) Pending() int { return len(p.pending) }

// NextInstance returns the lowest undelivered consensus instance
// (diagnostics).
func (p *Process) NextInstance() uint64 { return p.nextDeliver }

// onRBDeliver receives a reliably-broadcast message exactly once.
func (p *Process) onRBDeliver(id proto.MsgID, body any) {
	if p.adelivered.Seen(id) {
		return
	}
	p.bodies[id] = body
	p.pending[id] = struct{}{}
	// A decided batch may have been stalled waiting for this body.
	p.drainDecisions()
	p.maybePropose()
}

// maybePropose starts (or feeds a value into) the current consensus
// instance when there are unordered messages.
func (p *Process) maybePropose() {
	if len(p.pending) == 0 {
		return
	}
	inst := p.instance(p.nextDeliver)
	if inst.Decided() {
		return // drainDecisions will open the next instance
	}
	if inst.HasEstimate() {
		// Start keeps the first value, so snapshotting a fresh proposal
		// here would allocate only to be discarded.
		inst.Restart()
		return
	}
	if inst.Coordinator(1) == p.rt.ID() {
		inst.Start(p.proposal())
		return
	}
	// A non-coordinator's round-1 value is never transmitted: if the
	// instance ever reaches round 2 with our timestamp still zero, the
	// estimate is re-snapshotted through RefreshEstimate (the pending set
	// cannot drain under a started, undecided instance, so the refresh is
	// always non-nil). Starting lazily skips the snapshot allocation on
	// the fast path.
	inst.StartLazy()
}

// proposal snapshots the pending set in canonical order.
func (p *Process) proposal() consensus.Value {
	ids := make([]proto.MsgID, 0, len(p.pending))
	for id := range p.pending {
		ids = append(ids, id)
	}
	proto.SortMsgIDs(ids)
	return ids
}

// instance returns (creating on demand) the consensus instance k.
// Callers must ensure the first coordinator for k is known:
// k <= nextDeliver, or renumbering disabled.
//
// Instances are pooled: a slot recycled by collectGarbage is retargeted
// to k and its consensus.Instance reset in place, so steady-state
// operation reuses the same handful of slots instead of allocating an
// instance, transport box, and callback closures per batch.
func (p *Process) instance(k uint64) *consensus.Instance {
	if s, ok := p.instances[k]; ok {
		return s.inst
	}
	first := proto.PID(0)
	if p.cfg.Renumber {
		first = p.firstCoordFor(k)
	}
	var s *instSlot
	if n := len(p.slotFree); n > 0 {
		s = p.slotFree[n-1]
		p.slotFree = p.slotFree[:n-1]
	} else {
		s = &instSlot{}
		s.tr.p = p
		s.decide = func(v consensus.Value, proposer proto.PID) {
			p.onDecide(s.tr.k, v, proposer)
		}
	}
	s.tr.k = k
	cfg := consensus.Config{
		Self:            p.rt.ID(),
		Participants:    p.all,
		FirstCoord:      first,
		Suspects:        p.suspectsFn,
		Decide:          s.decide,
		RefreshEstimate: p.refreshFn,
	}
	if s.inst == nil {
		s.inst = consensus.New(cfg, &s.tr)
	} else {
		s.inst.Reset(cfg, &s.tr)
	}
	p.instances[k] = s
	return s.inst
}

// firstCoordFor returns the round-1 coordinator of instance k under the
// renumbering optimisation. It is only defined for k <= nextDeliver (the
// proposers of all earlier instances are known).
func (p *Process) firstCoordFor(k uint64) proto.PID {
	if k == p.nextDeliver {
		return p.firstCoord
	}
	if prop, ok := p.proposers[k-1]; ok {
		return prop
	}
	return p.firstCoord
}

// onConsensusMsg routes a consensus message to its instance, creating it
// reactively. With renumbering, messages for instances beyond
// nextDeliver are buffered until the earlier decisions (which determine
// the coordinator order) arrive.
func (p *Process) onConsensusMsg(from proto.PID, k uint64, m consensus.Msg) {
	p.noteInstance(from, k)
	if k < p.oldest {
		return // instance already garbage-collected; peer is far behind
	}
	if p.cfg.Renumber && k > p.nextDeliver {
		if _, exists := p.instances[k]; !exists {
			p.buffered[k] = append(p.buffered[k], bufferedMsg{from: from, m: m})
			return
		}
	}
	p.instance(k).OnMessage(from, m)
}

// onDecide records the decision of instance k and delivers in order.
func (p *Process) onDecide(k uint64, v consensus.Value, proposer proto.PID) {
	ids, ok := v.([]proto.MsgID)
	if !ok {
		panic(fmt.Sprintf("ctabcast: decision of unexpected type %T", v))
	}
	p.decisions[k] = ids
	p.proposers[k] = proposer
	p.drainDecisions()
}

// drainDecisions A-delivers decided batches in instance order. A batch
// whose body has not arrived yet stalls the drain; it resumes from
// onRBDeliver.
func (p *Process) drainDecisions() {
	for {
		ids, ok := p.decisions[p.nextDeliver]
		if !ok {
			break
		}
		// All bodies must be present before the batch is delivered, so
		// delivery of the whole batch is atomic in ID order.
		ready := true
		for _, id := range ids {
			if _, have := p.bodies[id]; !have && !p.adelivered.Seen(id) {
				ready = false
				break
			}
		}
		if !ready {
			break
		}
		// Log the batch before delivery consumes the bodies: catch-up
		// serves stragglers from the log long after the consensus
		// instances themselves are garbage-collected.
		p.appendLog(ids)
		// Sort into a reused scratch slice; the decision slice itself must
		// stay in proposal order for decision forwarding. Deliver never
		// reenters drainDecisions synchronously (all sends go through the
		// event queue), so the scratch cannot be clobbered mid-iteration.
		p.sortScratch = append(p.sortScratch[:0], ids...)
		proto.SortMsgIDs(p.sortScratch)
		for _, id := range p.sortScratch {
			if !p.adelivered.Add(id) {
				continue // decided twice across batches; deliver once
			}
			body := p.bodies[id]
			delete(p.bodies, id)
			delete(p.pending, id)
			p.rb.MarkStable(id)
			p.cfg.Deliver(id, body)
		}
		if p.cfg.Renumber {
			p.firstCoord = p.proposers[p.nextDeliver]
		}
		p.nextDeliver++
		// The previous instance's decision is now superseded by this
		// delivery everywhere that matters: stop suspicion-triggered
		// relays for it (decision forwarding keeps answering stragglers).
		// Without this, a crash would trigger a relay storm across the
		// whole retained window.
		if p.nextDeliver >= 3 {
			if s, ok := p.instances[p.nextDeliver-2]; ok {
				s.inst.Close()
			}
		}
		p.collectGarbage()
		p.flushBuffered()
	}
	p.maybePropose()
}

// flushBuffered replays consensus messages that waited for the coordinator
// order of the now-current instance.
func (p *Process) flushBuffered() {
	msgs, ok := p.buffered[p.nextDeliver]
	if !ok {
		return
	}
	delete(p.buffered, p.nextDeliver)
	for _, bm := range msgs {
		p.instance(p.nextDeliver).OnMessage(bm.from, bm.m)
	}
}

// collectGarbage closes and drops instances that fell out of the retention
// window. Decision forwarding for recently finished instances keeps
// working inside the window.
func (p *Process) collectGarbage() {
	if p.nextDeliver < instanceWindow {
		return
	}
	floor := p.nextDeliver - instanceWindow
	for p.oldest < floor {
		if s, ok := p.instances[p.oldest]; ok {
			s.inst.Close()
			delete(p.instances, p.oldest)
			// The slot is safe to reuse: the oldest watermark now filters
			// any straggler message addressed to its previous instance.
			p.slotFree = append(p.slotFree, s)
		}
		delete(p.decisions, p.oldest)
		delete(p.proposers, p.oldest)
		delete(p.buffered, p.oldest)
		p.oldest++
	}
}

// consTransport adapts the process runtime to one instance's transport,
// adding the instance tag. It is embedded in an instSlot and addressed
// by pointer, so handing it to consensus as a Transport does not
// allocate.
type consTransport struct {
	p *Process
	k uint64
}

// box draws a consMsg wire box from the process free list.
func (p *Process) box(k uint64, m consensus.Msg) *consMsg {
	if n := len(p.msgFree); n > 0 {
		b := p.msgFree[n-1]
		p.msgFree = p.msgFree[:n-1]
		b.K, b.M = k, m
		return b
	}
	return &consMsg{K: k, M: m, home: p}
}

func (t *consTransport) Send(to proto.PID, m consensus.Msg) {
	t.p.rt.Send(to, t.p.box(t.k, m))
}

func (t *consTransport) Multicast(m consensus.Msg) {
	t.p.rt.Multicast(t.p.box(t.k, m))
}
