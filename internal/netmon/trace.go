// Chrome-trace rendering of sampled packet paths: one lane per traced
// packet, drawn by telemetry.BuildTraceEvents beside the engine tracks of
// the same run, so a packet's hops can be read against the barrier windows
// that carried them.
package netmon

import (
	"fmt"

	"massf/internal/telemetry"
)

// Lanes turns hop spans into trace lanes, one per traced packet in trace
// id order, each hop a slice in simulated time.
func Lanes(spans []HopSpan) []telemetry.Lane {
	sorted := make([]HopSpan, len(spans))
	copy(sorted, spans)
	SortSpans(sorted)
	var lanes []telemetry.Lane
	for i := range sorted {
		sp := &sorted[i]
		if len(lanes) == 0 || sp.Trace != sorted[i-1].Trace {
			kind := "pkt"
			if sp.Ack {
				kind = "ack"
			}
			lanes = append(lanes, telemetry.Lane{Name: fmt.Sprintf("%s %d→%d #%x", kind, sp.Src, sp.Dst, sp.Trace)})
		}
		name := string(sp.Kind)
		if sp.Kind == SpanHop {
			name = fmt.Sprintf("link %d", sp.Link)
		}
		l := &lanes[len(lanes)-1]
		l.Slices = append(l.Slices, telemetry.LaneSlice{
			Name: name, StartNS: int64(sp.Start), EndNS: int64(sp.End),
			Args: map[string]any{
				"trace":        fmt.Sprintf("%#x", sp.Trace),
				"node":         sp.Node,
				"link":         sp.Link,
				"seq":          sp.Seq,
				"ack":          sp.Ack,
				"engine":       sp.Engine,
				"sim_start_ns": int64(sp.Start),
				"sim_end_ns":   int64(sp.End),
			},
		})
	}
	return lanes
}
