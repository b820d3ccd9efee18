// Package seqabcast implements the paper's "GM algorithm": a fixed-
// sequencer uniform atomic broadcast (after Birman, Schiper, Stephenson)
// that relies on the group membership service of internal/gm for
// reconfiguration after crashes and suspicions (§4.2).
//
// Normal operation within a view, with sequencer s = Members[0]:
//
//  1. A-broadcast(m): the sender multicasts m to all (MsgData).
//  2. The sequencer assigns m a sequence number and multicasts it
//     (MsgSeqNum); under load one MsgSeqNum carries many assignments —
//     the aggregation §4.2 calls essential for high throughput.
//  3. Non-sequencer processes that have both m and its sequence number
//     acknowledge to the sequencer (MsgAck, cumulative).
//  4. The sequencer waits for acks from a majority of the view, then
//     A-delivers and multicasts MsgDeliver; the others A-deliver on
//     receipt. This majority-ack step is what makes delivery uniform.
//
// The message pattern (data, seqnum, ack, deliver) is exactly the FD
// algorithm's pattern (data, propose, ack, decide) in failure-free runs —
// the property §4.4 builds the whole comparison on.
//
// The non-uniform variant of §8 is also implemented (Uniform: false):
// processes A-deliver as soon as they have a message and its sequence
// number, using only two multicasts and giving up uniformity.
//
// On view changes the gm.App callbacks flush unstable messages, reset the
// per-view sequencing state and re-sequence whatever was left unordered.
// Wrongly excluded processes queue their A-broadcasts and, after
// rejoining, catch up through the state-transfer snapshot (§4.3) before
// resuming.
package seqabcast

import (
	"fmt"
	"sort"

	"repro/internal/gm"
	"repro/internal/proto"
)

// Message types of the sequencer protocol. Sequence numbers are per-view,
// starting at 1; cross-view order is given by the view succession.
type (
	// MsgData carries an A-broadcast message to everyone.
	MsgData struct {
		ID   proto.MsgID
		Body any
	}
	// SeqPair assigns one sequence number.
	SeqPair struct {
		Seq uint64
		ID  proto.MsgID
	}
	// MsgSeqNum carries a batch of assignments from the sequencer.
	MsgSeqNum struct {
		View       uint64
		Pairs      []SeqPair
		StableUpTo uint64
	}
	// MsgAck tells the sequencer the sender has data and sequence number
	// for everything up to UpTo (cumulative).
	MsgAck struct {
		View uint64
		UpTo uint64
	}
	// MsgDeliver authorises A-delivery up to UpTo (uniform variant only).
	MsgDeliver struct {
		View       uint64
		UpTo       uint64
		StableUpTo uint64
	}
)

// LogEntry is one A-delivered message, in delivery order; the delivered
// log is the state-transfer payload for rejoining processes.
type LogEntry struct {
	ID   proto.MsgID
	Body any
}

// syncState is the Welcome payload built by SyncPayload.
type syncState struct {
	Entries []LogEntry
}

// Config parameterises the GM algorithm at one process.
type Config struct {
	// Deliver is the A-deliver upcall, invoked in total order.
	Deliver func(id proto.MsgID, body any)
	// Uniform selects the uniform variant (majority acks before
	// delivery). The non-uniform §8 variant delivers on sequence-number
	// receipt. All processes must agree on this setting.
	Uniform bool
	// InitialMembers is the first view (nil means all processes). The
	// crash-steady scenarios pass the surviving processes only.
	InitialMembers []proto.PID
	// SeqBase is the initial value of the local A-broadcast counter. A
	// recovered incarnation passes the number of message IDs its previous
	// incarnations consumed, so new IDs never collide with pre-crash ones
	// (a collision would be silently swallowed by duplicate suppression).
	SeqBase uint64
	// OnView, if non-nil, observes every view this process enters:
	// the initial view, each installed view, and rejoin views.
	OnView func(v gm.View)
}

const (
	// logRetain bounds the delivered log kept for state transfer. A
	// rejoin reaching below the retained window panics.
	logRetain = 16384
	// bufferLimit bounds protocol messages buffered while excluded.
	bufferLimit = 4096
)

// Process is the GM atomic broadcast endpoint at one process. It
// implements proto.Handler and gm.App.
type Process struct {
	rt  proto.Runtime
	cfg Config
	gm  *gm.GM

	bcastSeq uint64 // local A-broadcast counter (message IDs)

	// received holds the body of every message that is not yet known
	// stable: exactly the flush set. Undelivered messages are always
	// here; delivered ones stay until the sequencer announces stability.
	received  map[proto.MsgID]any
	delivered *proto.IDTracker
	log       []LogEntry
	logStart  uint64 // delivery count of log[0]

	// Per-view ordering state (reset on every install).
	assignments map[uint64]proto.MsgID
	seqOf       map[proto.MsgID]uint64
	nextDeliver uint64 // next sequence number to A-deliver
	haveUpTo    uint64 // contiguous data+seqnum prefix present locally
	stableUpTo  uint64 // sequencer-announced all-ack prefix

	// Sequencer-only state.
	nextAssign uint64
	toSequence []proto.MsgID
	batchOpen  bool
	batchMax   uint64
	ackedUpTo  map[proto.PID]uint64
	announced  uint64 // last MsgDeliver UpTo sent

	// Exclusion state.
	queued   []queuedBroadcast
	buffered []bufferedPayload
}

type queuedBroadcast struct {
	id   proto.MsgID
	body any
}

type bufferedPayload struct {
	from    proto.PID
	payload any
}

var (
	_ proto.Handler = (*Process)(nil)
	_ gm.App        = (*Process)(nil)
)

// New creates the GM algorithm endpoint for the process behind rt.
func New(rt proto.Runtime, cfg Config) *Process {
	if cfg.Deliver == nil {
		panic("seqabcast: nil Deliver")
	}
	p := &Process{
		rt:        rt,
		cfg:       cfg,
		bcastSeq:  cfg.SeqBase,
		received:  make(map[proto.MsgID]any),
		delivered: proto.NewIDTracker(),
	}
	p.resetViewState()
	p.gm = gm.New(rt)
	p.gm.SetApp(p)
	return p
}

// View exposes the current view (diagnostics and tests).
func (p *Process) View() gm.View { return p.gm.View() }

// IsSequencer reports whether this process sequences the current view.
func (p *Process) IsSequencer() bool {
	return p.gm.IsMember() && p.gm.View().Primary() == p.rt.ID()
}

// IsExcluded reports whether the process is currently outside the view.
func (p *Process) IsExcluded() bool { return !p.gm.IsMember() }

// DeliveredCount returns the number of messages A-delivered locally.
func (p *Process) DeliveredCount() uint64 {
	return p.logStart + uint64(len(p.log))
}

// Init implements proto.Handler.
func (p *Process) Init() {
	members := p.cfg.InitialMembers
	if members == nil {
		members = make([]proto.PID, p.rt.N())
		for i := range members {
			members[i] = proto.PID(i)
		}
	}
	v := gm.View{ID: 1, Members: members}
	p.gm.Start(v)
	if p.cfg.OnView != nil && p.gm.IsMember() {
		p.cfg.OnView(v)
	}
}

// ABroadcast atomically broadcasts body and returns its message ID. An
// excluded process queues the broadcast until it rejoins — the cost §7's
// suspicion-steady scenario charges to the GM algorithm.
func (p *Process) ABroadcast(body any) proto.MsgID {
	p.bcastSeq++
	id := proto.MsgID{Origin: p.rt.ID(), Seq: p.bcastSeq}
	if p.IsExcluded() {
		p.queued = append(p.queued, queuedBroadcast{id: id, body: body})
		return id
	}
	p.rt.Multicast(MsgData{ID: id, Body: body})
	return id
}

// OnMessage implements proto.Handler.
func (p *Process) OnMessage(from proto.PID, payload any) {
	if p.gm.OnMessage(from, payload) {
		return
	}
	switch m := payload.(type) {
	case MsgData:
		p.onData(m)
	case MsgSeqNum:
		p.onSeqNum(from, m)
	case MsgAck:
		p.onAck(from, m)
	case MsgDeliver:
		p.onDeliver(from, m)
	default:
		panic(fmt.Sprintf("seqabcast: unknown payload %T", payload))
	}
}

// OnSuspect implements proto.Handler: suspicion drives the membership
// service only — the sequencer protocol itself never consults the failure
// detector (the defining difference from the FD algorithm).
func (p *Process) OnSuspect(q proto.PID) { p.gm.OnSuspect(q) }

// OnTrust implements proto.Handler.
func (p *Process) OnTrust(q proto.PID) { p.gm.OnTrust(q) }

// onData stores a message body and, at the sequencer, queues it for the
// next assignment batch.
func (p *Process) onData(m MsgData) {
	if p.delivered.Seen(m.ID) {
		return
	}
	if _, dup := p.received[m.ID]; dup {
		return
	}
	p.received[m.ID] = m.Body
	if p.IsSequencer() && p.gm.Normal() {
		p.toSequence = append(p.toSequence, m.ID)
		p.trySequence()
	}
}

// trySequence opens the next assignment batch when the previous one has
// completed — mirroring the FD algorithm's one-consensus-at-a-time
// aggregation, which is what makes the two message patterns identical.
func (p *Process) trySequence() {
	if p.batchOpen || len(p.toSequence) == 0 || !p.IsSequencer() || !p.gm.Normal() {
		return
	}
	pairs := make([]SeqPair, 0, len(p.toSequence))
	for _, id := range p.toSequence {
		if _, dup := p.seqOf[id]; dup {
			continue
		}
		if p.delivered.Seen(id) {
			continue
		}
		pairs = append(pairs, SeqPair{Seq: p.nextAssign, ID: id})
		p.nextAssign++
	}
	p.toSequence = p.toSequence[:0]
	if len(pairs) == 0 {
		return
	}
	if p.cfg.Uniform {
		p.batchOpen = true
		p.batchMax = pairs[len(pairs)-1].Seq
	}
	p.rt.Multicast(MsgSeqNum{View: p.gm.View().ID, Pairs: pairs, StableUpTo: p.stability()})
	// Our own copy arrives through local delivery and advances haveUpTo.
}

// onSeqNum records assignments and acknowledges the new contiguous prefix.
func (p *Process) onSeqNum(from proto.PID, m MsgSeqNum) {
	if !p.acceptProtocol(from, m.View, m) {
		return
	}
	for _, pair := range m.Pairs {
		p.assignments[pair.Seq] = pair.ID
		p.seqOf[pair.ID] = pair.Seq
	}
	p.noteStable(m.StableUpTo)
	p.advanceHave()
}

// advanceHave pushes the contiguous data+seqnum prefix forward and drives
// the variant-specific delivery logic.
func (p *Process) advanceHave() {
	advanced := false
	for {
		id, ok := p.assignments[p.haveUpTo+1]
		if !ok {
			break
		}
		if _, have := p.received[id]; !have && !p.delivered.Seen(id) {
			break
		}
		p.haveUpTo++
		advanced = true
	}
	if !advanced {
		return
	}
	if !p.cfg.Uniform {
		// Non-uniform variant: deliver as soon as ordered.
		p.deliverUpTo(p.haveUpTo)
		return
	}
	if p.IsSequencer() {
		p.recomputeDeliverable()
	} else {
		p.rt.Send(p.gm.View().Primary(), MsgAck{View: p.gm.View().ID, UpTo: p.haveUpTo})
	}
}

// onAck updates the sequencer's ack table.
func (p *Process) onAck(from proto.PID, m MsgAck) {
	if !p.acceptProtocol(from, m.View, m) {
		return
	}
	if !p.IsSequencer() {
		return
	}
	if m.UpTo > p.ackedUpTo[from] {
		p.ackedUpTo[from] = m.UpTo
	}
	p.recomputeDeliverable()
}

// recomputeDeliverable delivers and announces the largest prefix
// acknowledged by a majority of the view (sequencer included).
func (p *Process) recomputeDeliverable() {
	members := p.gm.View().Members
	acks := make([]uint64, 0, len(members))
	for _, m := range members {
		if m == p.rt.ID() {
			acks = append(acks, p.haveUpTo)
		} else {
			acks = append(acks, p.ackedUpTo[m])
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	majority := len(members)/2 + 1
	deliverable := acks[majority-1]
	if deliverable <= p.announced {
		return
	}
	p.announced = deliverable
	p.deliverUpTo(deliverable)
	p.rt.Multicast(MsgDeliver{View: p.gm.View().ID, UpTo: deliverable, StableUpTo: p.stability()})
	if p.batchOpen && p.batchMax <= deliverable {
		p.batchOpen = false
		p.trySequence()
	}
}

// nonUniformStabilityLag is how far stability trails delivery in the
// non-uniform variant. Without acks a process cannot know what others
// received, so recently delivered messages must stay in the flush set
// (with their sequence numbers) long enough to cover any in-flight view
// change; dropping them immediately loses ordering knowledge and lets two
// never-excluded members deliver in different orders. A view change lasts
// a few tens of milliseconds — far fewer than this many messages even at
// the wire's capacity.
const nonUniformStabilityLag = 256

// stability returns the all-ack prefix: every member has data and
// sequence number for everything up to it. Stable messages can leave the
// flush set — with full seqnum knowledge preserved for anything a member
// might still be missing, which is what keeps the total order consistent
// across view changes.
func (p *Process) stability() uint64 {
	if !p.cfg.Uniform {
		if p.haveUpTo > nonUniformStabilityLag {
			return p.haveUpTo - nonUniformStabilityLag
		}
		return 0
	}
	stable := p.haveUpTo
	for _, m := range p.gm.View().Members {
		if m == p.rt.ID() {
			continue
		}
		if a := p.ackedUpTo[m]; a < stable {
			stable = a
		}
	}
	return stable
}

// onDeliver applies a delivery announcement.
func (p *Process) onDeliver(from proto.PID, m MsgDeliver) {
	if !p.acceptProtocol(from, m.View, m) {
		return
	}
	p.deliverUpTo(m.UpTo)
	p.noteStable(m.StableUpTo)
}

// acceptProtocol filters sequencing messages: only the current view in
// normal state is processed; an excluded process buffers them for replay
// after its state transfer.
func (p *Process) acceptProtocol(from proto.PID, view uint64, payload any) bool {
	if p.IsExcluded() {
		if len(p.buffered) < bufferLimit {
			p.buffered = append(p.buffered, bufferedPayload{from: from, payload: payload})
		}
		return false
	}
	if view > p.gm.View().ID {
		// Sequencing traffic of a view we never installed: evidence the
		// group reconfigured without us (we were partitioned away). The
		// membership service's staleness probe turns persistent evidence
		// into a rejoin.
		p.gm.NoteHigherView(view)
	}
	return p.gm.Normal() && view == p.gm.View().ID
}

// deliverUpTo A-delivers sequenced messages through seq in order.
func (p *Process) deliverUpTo(seq uint64) {
	for p.nextDeliver <= seq {
		id, ok := p.assignments[p.nextDeliver]
		if !ok {
			return // gap: wait for the assignment (cannot happen in FIFO order)
		}
		body, have := p.received[id]
		if !have && !p.delivered.Seen(id) {
			return // data still missing; resume when it arrives
		}
		p.deliverOne(id, body)
		p.nextDeliver++
	}
	p.pruneStable()
}

// deliverOne performs one A-delivery with duplicate suppression.
func (p *Process) deliverOne(id proto.MsgID, body any) {
	if !p.delivered.Add(id) {
		return
	}
	p.log = append(p.log, LogEntry{ID: id, Body: body})
	p.trimLog()
	p.cfg.Deliver(id, body)
}

// noteStable adopts the sequencer's stability announcement and prunes.
func (p *Process) noteStable(s uint64) {
	if s > p.stableUpTo {
		p.stableUpTo = s
		p.pruneStable()
	}
}

// pruneStable drops bodies of delivered messages that every member is
// known to have: they can never appear in a flush again.
func (p *Process) pruneStable() {
	for id := range p.received {
		seq, sequenced := p.seqOf[id]
		if sequenced && seq <= p.stableUpTo && p.delivered.Seen(id) {
			delete(p.received, id)
		}
	}
}

// trimLog bounds the state-transfer log.
func (p *Process) trimLog() {
	if len(p.log) <= logRetain+1024 {
		return
	}
	drop := len(p.log) - logRetain
	p.log = append([]LogEntry{}, p.log[drop:]...)
	p.logStart += uint64(drop)
}

// resetViewState clears all per-view ordering state.
func (p *Process) resetViewState() {
	p.assignments = make(map[uint64]proto.MsgID)
	p.seqOf = make(map[proto.MsgID]uint64)
	p.nextDeliver = 1
	p.haveUpTo = 0
	p.stableUpTo = 0
	p.nextAssign = 1
	p.toSequence = nil
	p.batchOpen = false
	p.batchMax = 0
	p.ackedUpTo = make(map[proto.PID]uint64)
	p.announced = 0
}

// --- gm.App implementation ---

// Unstable implements gm.App: the flush set is exactly the received map.
func (p *Process) Unstable() []gm.UnstableMsg {
	out := make([]gm.UnstableMsg, 0, len(p.received))
	for id, body := range p.received {
		seq := int64(-1)
		if s, ok := p.seqOf[id]; ok {
			seq = int64(s)
		}
		out = append(out, gm.UnstableMsg{ID: id, Seq: seq, Body: body})
	}
	return out
}

// InstallView implements gm.App: deliver the decided flush remainder and
// start the new view with fresh sequencing state.
func (p *Process) InstallView(v gm.View, flush []gm.UnstableMsg) {
	for _, um := range flush {
		p.deliverOne(um.ID, um.Body)
	}
	p.startNewView(v)
	if p.cfg.OnView != nil {
		p.cfg.OnView(v)
	}
}

// startNewView resets ordering state and re-sequences leftovers.
func (p *Process) startNewView(v gm.View) {
	p.resetViewState()
	// Everything delivered up to the install is stable by view synchrony:
	// only undelivered messages stay in the flush set.
	for id := range p.received {
		if p.delivered.Seen(id) {
			delete(p.received, id)
		}
	}
	if v.Primary() == p.rt.ID() {
		// Undelivered messages are re-sequenced in the new view, in
		// canonical ID order (all members compute the same leftovers, but
		// only the sequencer acts).
		ids := make([]proto.MsgID, 0, len(p.received))
		for id := range p.received {
			ids = append(ids, id)
		}
		proto.SortMsgIDs(ids)
		p.toSequence = ids
		p.trySequence()
	}
}

// Excluded implements gm.App.
func (p *Process) Excluded(gm.View) {
	// Frozen: ABroadcast queues, protocol messages buffer, data still
	// accumulates in received. Everything resolves at InstallSync.
}

// SyncRequest implements gm.App.
func (p *Process) SyncRequest() uint64 { return p.DeliveredCount() }

// SyncPayload implements gm.App: the missing suffix of the delivered log.
func (p *Process) SyncPayload(afterCount uint64) any {
	if afterCount < p.logStart {
		panic(fmt.Sprintf("seqabcast: state transfer needs deliveries from %d but log starts at %d (the log keeps the last %d)",
			afterCount, p.logStart, logRetain))
	}
	start := afterCount - p.logStart
	entries := make([]LogEntry, len(p.log[start:]))
	copy(entries, p.log[start:])
	return syncState{Entries: entries}
}

// InstallSync implements gm.App: apply the state snapshot, rejoin the
// view, replay buffered traffic and release queued broadcasts.
func (p *Process) InstallSync(v gm.View, payload any) {
	st, ok := payload.(syncState)
	if !ok {
		panic(fmt.Sprintf("seqabcast: sync payload of unexpected type %T", payload))
	}
	for _, e := range st.Entries {
		p.deliverOne(e.ID, e.Body)
	}
	p.startNewView(v)
	if p.cfg.OnView != nil {
		p.cfg.OnView(v)
	}
	buffered := p.buffered
	p.buffered = nil
	for _, bp := range buffered {
		switch m := bp.payload.(type) {
		case MsgSeqNum:
			if m.View == v.ID {
				p.onSeqNum(bp.from, m)
			}
		case MsgDeliver:
			if m.View == v.ID {
				p.onDeliver(bp.from, m)
			}
		case MsgAck:
			if m.View == v.ID {
				p.onAck(bp.from, m)
			}
		}
	}
	queued := p.queued
	p.queued = nil
	for _, qb := range queued {
		p.rt.Multicast(MsgData{ID: qb.id, Body: qb.body})
	}
	// Messages this process broadcast in its previous membership that the
	// group never sequenced — typically lost to the partition that got us
	// excluded — are re-announced in ID order, so rejoining also recovers
	// them. Receivers absorb duplicates.
	ids := make([]proto.MsgID, 0, len(p.received))
	for id := range p.received {
		if id.Origin == p.rt.ID() && !p.delivered.Seen(id) {
			ids = append(ids, id)
		}
	}
	proto.SortMsgIDs(ids)
	for _, id := range ids {
		p.rt.Multicast(MsgData{ID: id, Body: p.received[id]})
	}
}
