// Chrome trace-event export of the per-window trace ring: the flight
// recorder's wire format. The emitted JSON loads directly into Perfetto
// (ui.perfetto.dev) or chrome://tracing and renders one track per
// simulation engine, with a complete ("X") slice per phase of every
// barrier window — compute, barrier wait, exchange — so stragglers and
// barrier-dominated windows are visible at a glance. This file is the only
// code that maps simulated time onto the trace timeline, so every lane
// drawn in simulated time (sampled packet paths) lines up with the engine
// windows that carried it.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceEvent is one entry of the Chrome Trace Event Format (the subset
// Perfetto's JSON importer consumes). Timestamps and durations are in
// microseconds, per the format's convention.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container variant of the format.
type chromeTrace struct {
	TraceEvents     []TraceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// tracePhases are the per-engine slice names emitted for every window,
// plus the one-off setup span that precedes a track's first window.
const (
	phaseSetup    = "setup"
	phaseCompute  = "compute"
	phaseBarrier  = "barrier"
	phaseExchange = "exchange"
)

// Trace-event process ids: the engine tracks, then the lanes.
const (
	enginePID = 1
	lanePID   = 2
)

// Lane is one extra trace row drawn in simulated time next to the engine
// tracks — for example one sampled packet's path (netmon.Lanes).
type Lane struct {
	Name   string
	Slices []LaneSlice
}

// LaneSlice is one slice of a Lane. StartNS and EndNS are simulated time;
// the builder places them on the trace timeline.
type LaneSlice struct {
	Name           string
	StartNS, EndNS int64
	Args           map[string]any
}

// BuildTraceEvents is the one Chrome trace builder. It converts window
// records (oldest first, as returned by Ring.Snapshot) into one
// metadata-named track per engine with three complete slices per window —
// compute, barrier wait and exchange — and draws lanes beside them as a
// second process.
//
// setupNS, when non-nil, adds a leading "setup" slice on each engine
// track: setupNS[e] is the wall time engine e's worker spent materializing
// its scenario before the first event ran. Windows start once the slowest
// setup finishes, so a straggling rebuild shows as the long bar every
// other track waits on; a single-process run broadcasts its one build to
// every track.
//
// The recorder publishes an engine's barrier wait and exchange time one
// window late (they are only known after the window's record is
// appended), so the slices for window w take their barrier/exchange
// durations from the following record when it is contiguous (Seq+1); the
// trailing window renders with compute only.
//
// The timeline is synthesized from the records' wall-clock deltas: window
// w+1 starts WallNS after window w. Lane slices are projected onto it by
// simulated time (see timeline.at), so a packet's hops line up with the
// windows that carried them; without records lanes keep raw simulated
// time. Within a track or lane, slice starts are strictly ordered (a
// cursor absorbs jitter where phases overrun a window's wall time), which
// is what trace viewers require.
func BuildTraceEvents(recs []WindowRecord, setupNS []int64, lanes []Lane) []TraceEvent {
	engines := 0
	for i := range recs {
		if n := len(recs[i].Events); n > engines {
			engines = n
		}
	}
	events := make([]TraceEvent, 0, 4+2*engines+3*engines*len(recs))
	if engines > 0 {
		events = appendProcess(events, enginePID, "massf simulation", 0)
		for e := 0; e < engines; e++ {
			events = appendThread(events, enginePID, e, fmt.Sprintf("engine %d", e))
		}
	}
	cursor := make([]int64, engines) // per-track monotonic frontier, ns
	var base int64                   // window start on the synthetic timeline, ns
	for e := 0; e < engines && e < len(setupNS); e++ {
		if setupNS[e] <= 0 {
			continue
		}
		cursor[e] = appendSlice(&events, enginePID, phaseSetup, e, 0, setupNS[e],
			map[string]any{"setup_ns": setupNS[e]})
		if cursor[e] > base {
			base = cursor[e] // first window starts after the slowest setup
		}
	}
	var tl timeline
	for i := range recs {
		rec := &recs[i]
		// Barrier/exchange spans for this window live in the next record.
		var wait, exch []int64
		if i+1 < len(recs) && recs[i+1].Seq == rec.Seq+1 {
			wait, exch = recs[i+1].BarrierWaitNS, recs[i+1].ExchangeNS
		}
		for e := 0; e < len(rec.Events) && e < engines; e++ {
			at := base
			if cursor[e] > at {
				at = cursor[e]
			}
			args := map[string]any{
				"window": rec.Window,
				"seq":    rec.Seq,
				"events": rec.Events[e],
			}
			if e < len(rec.RemoteSends) {
				args["remote_sends"] = rec.RemoteSends[e]
			}
			if e < len(rec.QueueDepth) {
				args["queue_depth"] = rec.QueueDepth[e]
			}
			at = appendSlice(&events, enginePID, phaseCompute, e, at, idx64(rec.ComputeNS, e), args)
			at = appendSlice(&events, enginePID, phaseBarrier, e, at, idx64(wait, e), nil)
			at = appendSlice(&events, enginePID, phaseExchange, e, at, idx64(exch, e), nil)
			cursor[e] = at
		}
		wall := rec.WallNS
		if wall < 1 {
			wall = 1 // keep window starts strictly increasing
		}
		if rec.EndNS > rec.StartNS {
			tl = append(tl, timeSeg{simLo: rec.StartNS, simHi: rec.EndNS, synthLo: base, synthWd: wall})
		}
		base += wall
	}
	if len(lanes) > 0 {
		events = appendProcess(events, lanePID, "simulated-time lanes", 1)
	}
	for l := range lanes {
		events = appendThread(events, lanePID, l, lanes[l].Name)
		var cur int64
		for _, sl := range lanes[l].Slices {
			start := tl.at(sl.StartNS)
			if start < cur {
				start = cur
			}
			cur = appendSlice(&events, lanePID, sl.Name, l, start, tl.at(sl.EndNS)-start, sl.Args)
		}
	}
	return events
}

// timeSeg maps one window's simulated-time span onto its span of the
// synthetic trace timeline.
type timeSeg struct {
	simLo, simHi     int64
	synthLo, synthWd int64
}

// timeline is the window segments of one trace, in simulated-time order.
type timeline []timeSeg

// at projects simulated time t onto the trace timeline: linear
// interpolation inside the window that covers t, clamped into the nearest
// window across the idle gaps the engine fast-forwards over. An empty
// timeline maps simulated time identically.
func (tl timeline) at(t int64) int64 {
	if len(tl) == 0 {
		return t
	}
	i := sort.Search(len(tl), func(i int) bool { return tl[i].simHi > t })
	if i == len(tl) {
		last := tl[len(tl)-1]
		return last.synthLo + last.synthWd
	}
	s := tl[i]
	if t <= s.simLo {
		return s.synthLo
	}
	return s.synthLo + (t-s.simLo)*s.synthWd/(s.simHi-s.simLo)
}

// appendProcess names trace process pid and orders it among processes.
func appendProcess(events []TraceEvent, pid int, name string, order int) []TraceEvent {
	return append(events,
		TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}},
		TraceEvent{Name: "process_sort_index", Ph: "M", PID: pid, Args: map[string]any{"sort_index": order}})
}

// appendThread names track tid of process pid and orders it by tid.
func appendThread(events []TraceEvent, pid, tid int, name string) []TraceEvent {
	return append(events,
		TraceEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}},
		TraceEvent{Name: "thread_sort_index", Ph: "M", PID: pid, TID: tid, Args: map[string]any{"sort_index": tid}})
}

func idx64(s []int64, i int) int64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// appendSlice emits one complete ("X") slice of durNS nanoseconds at
// startNS on track tid of process pid and returns the slice's end.
// Zero-duration slices are still emitted (with the 1 ns minimum Perfetto
// accepts) so every window shows all three phases; the per-track cursor
// keeps starts strictly monotonic regardless.
func appendSlice(events *[]TraceEvent, pid int, name string, tid int, startNS, durNS int64, args map[string]any) int64 {
	if durNS < 1 {
		durNS = 1
	}
	*events = append(*events, TraceEvent{
		Name: name, Ph: "X", PID: pid, TID: tid,
		TS: float64(startNS) / 1e3, Dur: float64(durNS) / 1e3,
		Args: args,
	})
	return startNS + durNS
}

// WriteChromeTrace renders trace events (BuildTraceEvents) as a Chrome
// trace-event JSON object, loadable in Perfetto, with run-level metadata
// attached as otherData (may be nil).
func WriteChromeTrace(w io.Writer, events []TraceEvent, meta map[string]string) error {
	trace := chromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData:       meta,
	}
	if trace.TraceEvents == nil {
		trace.TraceEvents = []TraceEvent{} // "traceEvents" must be an array
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&trace)
}
