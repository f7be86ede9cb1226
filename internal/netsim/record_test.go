package netsim

import (
	"testing"

	"massf/internal/des"
	"massf/internal/faults"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/routing/interdomain"
	"massf/internal/telemetry"
)

// oneWayPlane is a fault plane whose forwarding additionally loses every
// route from `from` toward `to` from `after` on, so TCP traffic in that
// direction dies at its origin: data segments in sendSeg, ACKs in onData.
type oneWayPlane struct {
	*faults.Plane
	from, to model.NodeID
	after    des.Time
}

func (p oneWayPlane) NextLink(now des.Time, cur, dst model.NodeID) model.LinkID {
	if now >= p.after && cur == p.from && dst == p.to {
		return -1
	}
	return p.Plane.NextLink(now, cur, dst)
}

// TestTelemetryCountersMatchResult runs every kind of loss — tail drops,
// fault drops, TCP data and ACK segments with no route — and requires each
// massf_net_* counter to equal the Result field it mirrors, on one and two
// engines.
func TestTelemetryCountersMatchResult(t *testing.T) {
	for _, engines := range []int{1, 2} {
		net, h0, h1, l01 := faultSquare(t)
		routes := interdomain.New(net)
		plane, err := faults.NewPlane(net, routes, &faults.Script{Events: []faults.Event{
			{At: 100 * des.Millisecond, Kind: faults.LinkDown, Link: l01, ConvergeNS: 10_000_000},
			{At: 300 * des.Millisecond, Kind: faults.LinkUp, Link: l01, ConvergeNS: 10_000_000},
		}})
		if err != nil {
			t.Fatal(err)
		}
		plane.Prepare([]model.NodeID{h0, h1})
		part := make([]int32, len(net.Nodes))
		if engines == 2 {
			for n := range part {
				part[n] = 1
			}
			part[0], part[h0] = 0, 0 // r0 and its host; the cut links are ≥ 10 µs
		}
		tel := telemetry.New(engines, 64)
		mon := netmon.New(netmon.Options{Links: len(net.Links), Horizon: 600 * des.Millisecond, SampleEvery: 1})
		s, err := New(Config{
			Net: net, Routes: routes, Part: part, Engines: engines,
			Window: 10 * des.Microsecond, End: 600 * des.Millisecond, Seed: 1,
			QueueBytes: 6000, Telemetry: tel, NetMon: mon,
			Faults: oneWayPlane{Plane: plane, from: h1, to: h0, after: 50 * des.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			s.SendUDP(des.Millisecond, h0, h1, 1500, nil) // a burst past the queue
		}
		for at := des.Time(0); at < 500*des.Millisecond; at += 2 * des.Millisecond {
			s.SendUDP(at, h0, h1, 100, nil) // probes through the l01 outage
		}
		s.StartFlow(0, h0, h1, 20_000, nil)                  // completes before the cut
		s.StartFlow(60*des.Millisecond, h0, h1, 20_000, nil) // its ACKs have no route
		s.StartFlow(60*des.Millisecond, h1, h0, 20_000, nil) // its data has no route
		res := s.Run()
		if res.Err != nil {
			t.Fatal(res.Err)
		}

		var linkBits, linkDrops, faultDrops uint64
		for i := range res.LinkBits {
			linkBits += res.LinkBits[i]
			linkDrops += res.LinkDrops[i]
		}
		for _, d := range res.FaultDrops {
			faultDrops += d
		}
		noRoute := map[bool]bool{} // ack → a no-route drop span was seen
		for _, sp := range mon.Spans() {
			if sp.Kind == netmon.SpanDropNoRoute {
				noRoute[sp.Ack] = true
			}
		}
		if linkDrops == 0 || faultDrops == 0 || !noRoute[false] || !noRoute[true] ||
			res.FlowsCompleted == 0 || res.FlowsCompleted == res.FlowsStarted {
			t.Fatalf("k=%d: scenario misses a loss kind: tail %d, fault %d, no-route data %v ack %v, flows %d/%d",
				engines, linkDrops, faultDrops, noRoute[false], noRoute[true], res.FlowsCompleted, res.FlowsStarted)
		}

		got := map[string]uint64{}
		for _, p := range tel.Reg.Gather() {
			got[p.Name] = uint64(p.Value)
		}
		for name, want := range map[string]uint64{
			"massf_net_drops_total":           res.Dropped,
			"massf_net_fault_drops_total":     faultDrops,
			"massf_net_delivered_bits_total":  res.DeliveredBits,
			"massf_net_link_bits_total":       linkBits,
			"massf_net_tcp_retransmits_total": res.Retransmissions,
			"massf_net_flows_started_total":   uint64(res.FlowsStarted),
			"massf_net_flows_completed_total": uint64(res.FlowsCompleted),
			"massf_net_fault_events_total":    uint64(plane.NumFaults()),
		} {
			if got[name] != want {
				t.Errorf("k=%d: %s = %d, Result says %d", engines, name, got[name], want)
			}
		}
	}
}
