// Command massf runs a parallel packet-level network simulation from a DML
// network file: it maps the network onto engine nodes with a chosen
// load-balance approach, drives the paper's background and foreground
// workloads, and reports the evaluation metrics (simulation time, achieved
// MLL, load imbalance, parallel efficiency). A profiling pass can be
// captured with -profile-out and fed back via -profile for the
// profile-based approaches.
//
// Example two-pass PROF workflow:
//
//	massf -net net.dml -approach RANDOM -engines 1 -profile-out prof.txt
//	massf -net net.dml -approach HPROF -engines 90 -profile prof.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"massf"
)

var approaches = map[string]massf.Approach{
	"RANDOM": massf.RANDOM,
	"TOP":    massf.TOP,
	"TOP2":   massf.TOP2,
	"PLACE":  massf.PLACE,
	"PROF":   massf.PROF,
	"PROF2":  massf.PROF2,
	"HTOP":   massf.HTOP,
	"HPROF":  massf.HPROF,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, func() int64 { return time.Now().UnixNano() }); err != nil {
		fmt.Fprintln(os.Stderr, "massf:", err)
		os.Exit(1)
	}
}

// run is the whole command with its effects injected: flags parsed from
// args, the report written to out, and the clock behind `-seed 0` supplied
// by nowNano — so a test can pin the derived seed and assert that a rerun
// with the *printed* seed reproduces the report byte for byte.
func run(args []string, out io.Writer, nowNano func() int64) error {
	fs := flag.NewFlagSet("massf", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		netPath   = fs.String("net", "", "input DML network (required)")
		name      = fs.String("approach", "HPROF", "mapping approach")
		engines   = fs.Int("engines", 16, "simulation engine node count")
		horizon   = fs.Float64("seconds", 8, "simulated seconds")
		app       = fs.String("app", "scalapack", "foreground application: scalapack, gridnpb, none")
		clients   = fs.Int("clients", 0, "background HTTP clients (default: 80% of free hosts)")
		servers   = fs.Int("servers", 0, "background HTTP servers (default: the rest)")
		profPath  = fs.String("profile", "", "traffic profile input")
		profIn    = fs.String("profile-in", "", "alias for -profile (pairs with -profile-out)")
		profOut   = fs.String("profile-out", "", "write the measured profile here")
		faultPath = fs.String("faults", "", "JSON fault script: scripted link/router churn with live reconvergence")
		traceOut  = fs.String("trace", "", "write the run's flight recording here as Chrome trace JSON (load in ui.perfetto.dev); with -netsample it carries the sampled packet paths as lanes beside the engine tracks")
		straggler = fs.Int("stragglers", 0, "print the top-K straggler report after the run (0 = off)")
		netStats  = fs.Bool("netstats", false, "attach the network observability plane and print busiest links, drop split and FCT percentiles")
		netSample = fs.Int("netsample", 0, "sample every k-th injected packet for path tracing (0 = off; implies -netstats)")
		jsonOut   = fs.Bool("json", false, "emit the full result as JSON instead of the text report")
		fidelity  = fs.String("fidelity", "packet", "flow fidelity: packet (all traffic packet-level) or hybrid (background HTTP on the analytic fluid plane, foreground packet-level)")
		fluidQtm  = fs.Float64("fluid-quantum-us", 0, "hybrid: batch fluid rate recomputation onto this grid in µs (0 = exact; the scale knob for very large client counts)")
		seed      = fs.Int64("seed", 0, "simulation seed (0 = derive from the clock)")
		realTime  = fs.Float64("realtime", 0, "real-time pacing factor (0 = as fast as possible, 8 = paper's slowdown)")
		eventCost = fs.Float64("event-cost-us", 15, "modeled per-event cost in µs")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run here (go tool pprof)")
		memProf   = fs.String("memprofile", "", "write a heap profile at exit here (go tool pprof)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *netPath == "" {
		return fmt.Errorf("-net is required")
	}
	// Host-level profiling of the simulator itself (hot-path regressions),
	// as opposed to -profile-out, which captures the *simulated* network's
	// traffic profile for the partitioner.
	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			mf, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "massf:", err)
				return
			}
			defer mf.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, "massf:", err)
			}
		}()
	}
	if *seed == 0 {
		*seed = nowNano()
	}
	a, ok := approaches[strings.ToUpper(*name)]
	if !ok {
		return fmt.Errorf("unknown approach %q", *name)
	}
	hybrid := false
	switch strings.ToLower(*fidelity) {
	case "", "packet":
	case "hybrid":
		hybrid = true
	default:
		return fmt.Errorf("unknown -fidelity %q (want packet or hybrid)", *fidelity)
	}

	setupStart := time.Now()
	f, err := os.Open(*netPath)
	if err != nil {
		return err
	}
	net, err := massf.LoadNetwork(f)
	f.Close()
	if err != nil {
		return err
	}
	routes := massf.NewRouting(net)

	if *profIn != "" {
		if *profPath != "" && *profPath != *profIn {
			return fmt.Errorf("-profile and -profile-in name different files")
		}
		*profPath = *profIn
	}
	var prof *massf.Profile
	if *profPath != "" {
		pf, err := os.Open(*profPath)
		if err != nil {
			return err
		}
		prof, err = massf.ReadProfile(pf)
		pf.Close()
		if err != nil {
			return err
		}
	}

	var plane *massf.FaultPlane
	if *faultPath != "" {
		ff, err := os.Open(*faultPath)
		if err != nil {
			return err
		}
		script, err := massf.LoadFaultScript(ff)
		ff.Close()
		if err != nil {
			return err
		}
		if plane, err = massf.NewFaultPlane(net, routes, script); err != nil {
			return err
		}
	}

	mapping, err := massf.Map(net, a, massf.MappingConfig{Engines: *engines, Seed: *seed}, prof)
	if err != nil {
		return err
	}
	end := massf.Time(*horizon * float64(massf.Second))
	cost := massf.Time(*eventCost * float64(massf.Microsecond))
	// The flight recorder costs one ring append per barrier window, so it
	// is only armed when a trace or straggler report was asked for.
	var tel *massf.Telemetry
	if *traceOut != "" || *straggler > 0 {
		tel = massf.NewTelemetry(*engines)
	}
	var mon *massf.NetMon
	if *netStats || *netSample > 0 {
		bw := make([]int64, len(net.Links))
		for i := range net.Links {
			bw[i] = net.Links[i].Bandwidth
		}
		mon = massf.NewNetMon(massf.NetMonOptions{
			Links: len(net.Links), Horizon: end,
			SampleEvery: *netSample, Bandwidths: bw,
		})
	}
	cfg := massf.SimConfig{
		Net: net, Routes: routes, Part: mapping.Part, Engines: *engines,
		Window: mapping.MLL, End: end, Seed: *seed,
		EventCost: cost, RealTimeFactor: *realTime, Telemetry: tel,
		NetMon: mon,
	}
	if plane != nil {
		cfg.Faults = plane
	}

	// Host roles (needed before NewSimulation: a hybrid run's fluid plane
	// is built from the client/server roles and attached at construction).
	var hosts []massf.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == massf.Host {
			hosts = append(hosts, massf.NodeID(i))
		}
	}
	if len(hosts) < 9 {
		return fmt.Errorf("network has only %d hosts; need ≥ 9", len(hosts))
	}
	if plane != nil {
		plane.Prepare(hosts)
	}
	appHosts := hosts[:7]
	free := hosts[7:]
	nc := *clients
	if nc <= 0 || nc > len(free)-1 {
		nc = len(free) * 4 / 5
	}
	ns := *servers
	if ns <= 0 || nc+ns > len(free) {
		ns = len(free) - nc
	}
	httpCfg := massf.HTTPConfig{
		Clients: free[:nc], Servers: free[nc : nc+ns],
		MeanGap: 5 * massf.Second, MeanFileBytes: 50_000, Seed: *seed,
	}
	var httpStats *massf.HTTPStats
	if hybrid {
		bgFlows, next, stats := massf.FluidHTTPWorkload(httpCfg, end)
		fcfg := massf.FluidConfig{
			Net: net, Routes: routes, End: end,
			Quantum: massf.Time(*fluidQtm * float64(massf.Microsecond)),
			Next:    next,
		}
		if plane != nil {
			fcfg.Faults = plane
		}
		fp, err := massf.BuildFluidPlane(fcfg, bgFlows)
		if err != nil {
			return err
		}
		cfg.Fluid = fp
		httpStats = stats
	}
	sim, err := massf.NewSimulation(cfg)
	if err != nil {
		return err
	}
	if !hybrid {
		httpStats = massf.InstallHTTP(sim, httpCfg)
	}
	var appFlows []*massf.WorkflowStats
	var flows []massf.Workflow
	switch strings.ToLower(*app) {
	case "scalapack":
		flows = []massf.Workflow{massf.ScaLapackWorkflow(appHosts, massf.DefaultScaLapack())}
	case "gridnpb":
		flows = massf.GridNPBWorkflows(appHosts)
	case "none":
	default:
		return fmt.Errorf("unknown app %q", *app)
	}
	for _, w := range flows {
		ws, err := massf.InstallWorkflow(sim, w, 0)
		if err != nil {
			return err
		}
		appFlows = append(appFlows, ws)
	}

	setupSec := time.Since(setupStart).Seconds()
	res := sim.Run()
	mem := massf.ReadMemStats()
	rep := massf.ReportFor(a.String(), &res, cost)
	if *jsonOut {
		doc := map[string]any{
			"approach":   a.String(),
			"engines":    *engines,
			"fidelity":   strings.ToLower(*fidelity),
			"seed":       *seed,
			"mll_ns":     int64(mapping.MLL),
			"horizon_ns": int64(end),
			"setup_sec":  setupSec,
			"mem":        mem,
			"report":     rep,
			"http": map[string]uint64{
				"requests": httpStats.TotalRequests(), "responses": httpStats.TotalResponses(),
			},
		}
		// Stats.Err is an interface; surface it as a string and clear it so
		// the embedded Result marshals cleanly.
		if res.Err != nil {
			doc["error"] = res.Err.Error()
			res.Err = nil
		}
		doc["result"] = &res
		if len(appFlows) > 0 {
			apps := make([]map[string]any, len(appFlows))
			for i, ws := range appFlows {
				apps[i] = map[string]any{"rounds": ws.Rounds, "first_finish_ns": int64(ws.FirstFinish)}
			}
			doc["apps"] = apps
		}
		if plane != nil {
			doc["faults"] = plane.Events()
		}
		if mon != nil {
			doc["netmon"] = map[string]any{
				"summary": mon.Summary(),
				"links":   mon.LinkReport(32, false),
				"flows":   mon.FlowReport(false),
			}
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	}
	if !*jsonOut {
		printTextReport(out, a, *engines, *seed, mapping.MLL, end, setupSec, mem, &res, rep, httpStats, appFlows, plane, mon)
	}

	if *profOut != "" {
		p := massf.ProfileFromResult(&res, end)
		of, err := os.Create(*profOut)
		if err != nil {
			return err
		}
		if err := p.Write(of); err != nil {
			of.Close()
			return err
		}
		if err := of.Close(); err != nil {
			return err
		}
	}

	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		// One shared build serves every engine in-process: broadcast the
		// setup span to all tracks so the trace shows what a distributed
		// worker's rebuild would cost.
		setupSpans := make([]int64, *engines)
		for i := range setupSpans {
			setupSpans[i] = int64(setupSec * 1e9)
		}
		meta := map[string]string{
			"approach": a.String(),
			"engines":  fmt.Sprint(*engines),
			"net":      *netPath,
		}
		var lanes []massf.TraceLane
		if *netSample > 0 {
			lanes = massf.PathLanes(mon.Spans())
			meta["sample_every"] = fmt.Sprint(*netSample)
		}
		err = massf.WriteChromeTrace(tf, massf.BuildTraceEvents(tel.Windows.Snapshot(), setupSpans, lanes), meta)
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trace                %s (%d windows recorded, %d sampled paths)\n",
			*traceOut, res.Windows, len(lanes))
	}
	if *straggler > 0 {
		rep := massf.AnalyzeFlight(tel.Windows.Snapshot(), *straggler)
		rep.AttributeRouters(mapping.Part, res.NodeEvents, 5)
		fmt.Fprintln(out)
		if err := rep.WriteText(out); err != nil {
			return err
		}
	}
	return nil
}

// printTextReport writes the human-readable run report: the headline
// metrics, per-app workflow progress, the fault timeline when a fault
// script ran, and the network observability digest when the plane was
// attached.
func printTextReport(out io.Writer, a massf.Approach, engines int, seed int64,
	mll, end massf.Time, setupSec float64, mem massf.MemSample,
	res *massf.Result, rep massf.Report,
	httpStats *massf.HTTPStats, appFlows []*massf.WorkflowStats,
	plane *massf.FaultPlane, mon *massf.NetMon) {
	fmt.Fprintf(out, "approach             %v\n", a)
	fmt.Fprintf(out, "engines              %d\n", engines)
	fmt.Fprintf(out, "seed                 %d\n", seed)
	fmt.Fprintf(out, "achieved MLL         %v\n", mll)
	fmt.Fprintf(out, "simulated horizon    %v\n", end)
	fmt.Fprintf(out, "setup time           %.3f s\n", setupSec)
	fmt.Fprintf(out, "memory               %.1f MiB heap in use, %.1f MiB peak RSS\n",
		float64(mem.HeapInuse)/(1<<20), float64(mem.PeakRSS)/(1<<20))
	fmt.Fprintf(out, "events               %d (%d remote)\n", res.TotalEvents, res.RemoteEvents)
	fmt.Fprintf(out, "barrier windows      %d\n", res.Windows)
	fmt.Fprintf(out, "modeled sim time     %.3f s\n", rep.SimTimeSec)
	fmt.Fprintf(out, "wall time            %.3f s\n", rep.WallSec)
	fmt.Fprintf(out, "load imbalance       %.3f\n", rep.Imbalance)
	fmt.Fprintf(out, "parallel efficiency  %.3f\n", rep.Efficiency)
	fmt.Fprintf(out, "flows                %d started, %d completed, %d pkts dropped\n",
		res.FlowsStarted, res.FlowsCompleted, res.Dropped)
	if res.FluidDone != nil {
		fmt.Fprintf(out, "fluid                %d flows started, %d completed, %.1f Mbit delivered\n",
			res.FluidStarted, res.FluidCompleted, float64(res.FluidDeliveredBits)/1e6)
	}
	fmt.Fprintf(out, "http                 %d requests, %d responses\n",
		httpStats.TotalRequests(), httpStats.TotalResponses())
	for i, ws := range appFlows {
		fmt.Fprintf(out, "app[%d]               %d rounds, first finish %v\n", i, ws.Rounds, ws.FirstFinish)
	}
	if plane != nil {
		var lost uint64
		for _, d := range res.FaultDrops {
			lost += d
		}
		fmt.Fprintf(out, "faults               %d events, %d pkts lost during reconvergence\n",
			plane.NumFaults(), lost)
		for i, ev := range plane.Events() {
			target := fmt.Sprintf("link %d", ev.Link)
			if ev.Kind == massf.NodeFaultDown || ev.Kind == massf.NodeFaultUp {
				target = fmt.Sprintf("node %d", ev.Node)
			}
			if ev.NoOp {
				fmt.Fprintf(out, "fault[%d]             %s %s at %v: no-op\n", i, ev.Kind, target, ev.At)
				continue
			}
			var drops uint64
			if i < len(res.FaultDrops) {
				drops = res.FaultDrops[i]
			}
			fmt.Fprintf(out, "fault[%d]             %s %s at %v: %d bgp msgs, %d routes changed, routes live at %v, %d pkts lost\n",
				i, ev.Kind, target, ev.At, ev.UpdateMsgs, ev.RoutesChanged, ev.RoutesAt, drops)
		}
	}
	if mon != nil {
		sum := mon.Summary()
		fmt.Fprintf(out, "net drops            %d tail, %d no-route, %d ttl, %d fault\n",
			sum.DropsTail, sum.DropsNoRoute, sum.DropsTTL, sum.DropsFault)
		fmt.Fprintf(out, "net flows            %d recorded, %d completed\n",
			sum.FlowsRecorded, sum.FlowsCompleted)
		if sum.FlowsCompleted > 0 {
			fmt.Fprintf(out, "net FCT              p50 %v, p90 %v, p99 %v\n",
				massf.Time(sum.FCTP50NS), massf.Time(sum.FCTP90NS), massf.Time(sum.FCTP99NS))
		}
		lr := mon.LinkReport(5, false)
		for i, d := range lr.Links {
			fmt.Fprintf(out, "net link[%d]          link %d dir %d: %d bits, mean util %.3f, peak %.3f, max queue %v\n",
				i, d.Link, d.Dir, d.Bits, d.MeanUtil, d.PeakUtil, massf.Time(d.QueueMaxNS))
		}
		if mon.Sampling() {
			fmt.Fprintf(out, "net paths            %d sampled (every %d pkts), %d hop spans\n",
				len(mon.Paths()), mon.SampleEvery(), sum.Spans)
		}
	}
}
