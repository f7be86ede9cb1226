// The record path: every network event the simulation observes — a link
// send, a delivery, a loss, a retransmission, a flow start or completion —
// goes through exactly one helper below. Each helper updates the
// per-engine counters Result is built from and, behind a single
// s.mon != nil check, the netmon plane. Telemetry never sees an event: it
// folds its massf_net_* counters from the same per-engine counters, so the
// two views cannot disagree.
package netsim

import (
	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/telemetry"
)

// Per-engine network counters, indexes into engCounters.n.
const (
	cLinkBits     = iota // bits put on links
	cDelivered           // payload bits delivered to destination hosts
	cDropped             // packets lost, every cause
	cFaultDropped        // the subset lost to failed links or nodes
	cRetrans             // TCP segments sent more than once
	cFlowsStarted        // TCP flows started with their source here
	cFlowsDone           // TCP flows fully acknowledged
	cFaultEvents         // fault markers fired (engine 0 only)
	numCounters
)

// engCounters is one engine's network counters. Only the owning engine's
// goroutine writes them (setup writes flow starts before Run); Result
// reads them after Run and the telemetry fold between barriers. Padded
// to two cache lines so engines never share one.
type engCounters struct {
	n        [numCounters]uint64
	lastDone des.Time // latest flow completion
	_        [56]byte
}

// drop records one lost packet at node: dir is the link direction
// involved (-1 for none) and fault the responsible fault event (-1 when
// unattributed or not a fault loss). Must run on node's engine.
func (s *Sim) drop(node model.NodeID, dir int, now des.Time, cause netmon.DropCause, fault int, pkt *Packet) {
	e := s.EngineOf(node)
	c := &s.ctr[e].n
	c[cDropped]++
	switch cause {
	case netmon.DropTail:
		s.dirs[dir].drops++
	case netmon.DropFault:
		c[cFaultDropped]++
		if fault >= 0 {
			s.faultDrops[e][fault]++
		}
	}
	if s.mon != nil {
		s.mon.LinkDrop(dir, now, cause)
		if pkt.trace != 0 {
			link := model.LinkID(-1)
			if dir >= 0 {
				link = model.LinkID(dir / 2)
			}
			s.monSpan(pkt, node, link, now, now, cause.Span())
		}
	}
}

// sent records pkt put onto link direction dir by node at now: it leaves
// the queue at start and lands at the far end at arrival.
func (s *Sim) sent(node model.NodeID, dir int, now, start, arrival des.Time, pkt *Packet) {
	s.dirs[dir].bits += uint64(pkt.Bits)
	s.ctr[s.EngineOf(node)].n[cLinkBits] += uint64(pkt.Bits)
	if s.mon != nil {
		s.mon.LinkSend(dir, now, pkt.Bits, int64(start-now))
		if pkt.trace != 0 {
			s.monSpan(pkt, node, model.LinkID(dir/2), now, arrival, netmon.SpanHop)
		}
	}
}

// sample decides whether a packet entering the network at now is
// path-traced. ACKs are identified by their cumulative ack number.
func (s *Sim) sample(pkt *Packet, now des.Time) {
	if s.mon != nil {
		seq := pkt.Seq
		if pkt.Ack {
			seq = pkt.AckNum
		}
		pkt.trace = s.mon.SampleTrace(pkt.Src, pkt.Dst, seq, pkt.Ack, pkt.Bits, now)
	}
}

// deliver dispatches a packet that reached its destination node at now,
// counting data and datagram payload as delivered. Runs on the
// destination's engine.
func (s *Sim) deliver(now des.Time, node model.NodeID, pkt Packet) {
	if s.mon != nil && pkt.trace != 0 {
		s.monSpan(&pkt, node, -1, now, now, netmon.SpanDeliver)
	}
	if pkt.flow == nil && pkt.wref != nil {
		pkt.flow = s.adoptFlow(&pkt) // wire packet for a flow this worker has not seen
	}
	if pkt.flow != nil && pkt.Ack {
		s.onAck(pkt.flow, pkt)
		return
	}
	s.ctr[s.EngineOf(node)].n[cDelivered] += uint64(pkt.Bits)
	switch {
	case pkt.flow != nil:
		s.onData(pkt.flow, pkt)
	case pkt.deliverCb != nil:
		pkt.deliverCb(now)
	}
}

// retransmitted records a segment of f sent more than once. Runs on f's
// source engine.
func (s *Sim) retransmitted(f *flow) {
	s.ctr[s.EngineOf(f.src)].n[cRetrans]++
	if f.rec != nil {
		f.rec.Retransmit()
	}
}

// flowStarted records f, a transfer of bytes scheduled to start at at.
func (s *Sim) flowStarted(f *flow, at des.Time, bytes int64) {
	s.ctr[s.EngineOf(f.src)].n[cFlowsStarted]++
	if s.mon != nil {
		f.rec = s.mon.FlowStarted(at, f.src, f.dst, bytes)
	}
}

// flowDone marks f fully acknowledged at now. Runs on f's source engine.
func (s *Sim) flowDone(f *flow, now des.Time) {
	f.done = true
	c := &s.ctr[s.EngineOf(f.src)]
	c.n[cFlowsDone]++
	if now > c.lastDone {
		c.lastDone = now
	}
	if f.rec != nil {
		s.mon.FlowCompleted(f.rec, now)
	}
}

// arriveDir is the netmon direction index of the link direction a packet
// ARRIVED over at node: the transmitting end was the far endpoint, so the
// index is 2*via (+1 when the sender was the link's B end). -1 when the
// packet did not cross a link.
func (s *Sim) arriveDir(node model.NodeID, via model.LinkID) int {
	if via < 0 {
		return -1
	}
	d := 2 * int(via)
	if s.cfg.Net.Links[via].A == node {
		d++ // sender was B
	}
	return d
}

// monSpan records one path span of a traced packet. Callers guard on
// s.mon != nil && pkt.trace != 0.
func (s *Sim) monSpan(pkt *Packet, node model.NodeID, link model.LinkID, start, end des.Time, kind netmon.SpanKind) {
	s.mon.Span(netmon.HopSpan{
		Trace: pkt.trace, Src: pkt.Src, Dst: pkt.Dst,
		Node: node, Link: link, Kind: kind,
		Start: start, End: end, Engine: s.EngineOf(node),
		Ack: pkt.Ack, Seq: pkt.Seq,
	})
}

// totals sums the hosted engines' counters and finds their latest flow
// completion: the figures Result reports and telemetry publishes.
func (s *Sim) totals() (t [numCounters]uint64, lastDone des.Time) {
	for e := s.hostLo; e < s.hostHi; e++ {
		c := &s.ctr[e]
		for i, v := range c.n {
			t[i] += v
		}
		if c.lastDone > lastDone {
			lastDone = c.lastDone
		}
	}
	return t, lastDone
}

// foldTelemetry publishes the network counters into Config.Telemetry.
// Engine 0 calls it between the barriers of every window (pdes
// Config.OnWindow), while every engine is parked, and Run calls it once
// more when the engines stop, which also covers distributed workers.
// Each counter advances by its change since the previous fold, so a fold
// costs O(engines) and never touches a link.
func (s *Sim) foldTelemetry() {
	tel := s.cfg.Telemetry
	if tel == nil {
		return
	}
	t, _ := s.totals()
	for i, c := range [numCounters]*telemetry.Counter{
		cLinkBits:     tel.LinkBits,
		cDelivered:    tel.DeliveredBits,
		cDropped:      tel.Drops,
		cFaultDropped: tel.FaultDrops,
		cRetrans:      tel.Retransmits,
		cFlowsStarted: tel.FlowsStarted,
		cFlowsDone:    tel.FlowsDone,
		cFaultEvents:  tel.FaultEvents,
	} {
		c.Add(t[i] - s.folded[i])
	}
	if t[cFaultEvents] != s.folded[cFaultEvents] {
		tel.FaultConverge.Set(s.faults.FaultConvergeNS(s.lastFault))
		tel.FaultRoutesAt.Set(int64(s.faults.FaultRoutesAt(s.lastFault)))
	}
	s.folded = t
}
