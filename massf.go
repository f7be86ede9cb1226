// Package massf is a realistic large-scale online network simulator — a Go
// reproduction of MaSSF, the parallel network simulation engine of the
// MicroGrid system (Liu & Chien, "Realistic Large-Scale Online Network
// Simulation", SC 2004).
//
// It provides, behind one facade:
//
//   - Topology generation: single-AS power-law networks (BRITE-style) and
//     Internet-like multi-AS networks with automatically configured BGP
//     routing policies (maBrite).
//   - Routing: intra-domain OSPF shortest paths and inter-domain BGP4
//     policy routing (customer/peer/provider preferences, no-valley
//     export).
//   - A packet-level network simulator (IP forwarding, drop-tail queues,
//     TCP Reno/UDP transport) on a conservative parallel discrete event
//     engine whose engine nodes advance in minimum-link-latency windows.
//   - The paper's load-balance mapping family — TOP, TOP2, PROF, PROF2 and
//     the hierarchical HTOP and HPROF — built on a from-scratch multilevel
//     k-way graph partitioner.
//   - Traffic models (HTTP background; ScaLapack and GridNPB foreground
//     applications), metrics (achieved MLL, load imbalance, parallel
//     efficiency), online live-traffic injection, and a DML configuration
//     format.
//
// The quickest path from nothing to a running parallel simulation:
//
//	net, _ := massf.GenerateFlat(massf.FlatOptions{Routers: 500, Hosts: 100, Seed: 1})
//	routes := massf.NewRouting(net)
//	mapping, _ := massf.Map(net, massf.HPROF, massf.MappingConfig{Engines: 8}, prof)
//	sim, _ := massf.NewSimulation(massf.SimConfig{
//	    Net: net, Routes: routes, Part: mapping.Part, Engines: 8,
//	    Window: mapping.MLL, End: 10 * massf.Second,
//	})
//	massf.InstallHTTP(sim, massf.HTTPConfig{Clients: clients, Servers: servers})
//	result := sim.Run()
//
// See examples/ for complete programs and DESIGN.md for the system map.
package massf

import (
	"io"

	"massf/internal/agent"
	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/dml"
	"massf/internal/faults"
	"massf/internal/flight"
	"massf/internal/fluid"
	"massf/internal/mabrite"
	"massf/internal/memstat"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/netsim"
	"massf/internal/profile"
	"massf/internal/routing/bgp"
	"massf/internal/routing/interdomain"
	"massf/internal/routing/ospf"
	"massf/internal/runspec"
	"massf/internal/telemetry"
	"massf/internal/topology"
	"massf/internal/traffic"
)

// Core simulated-time type and units.
type Time = des.Time

// Time units.
const (
	Nanosecond  = des.Nanosecond
	Microsecond = des.Microsecond
	Millisecond = des.Millisecond
	Second      = des.Second
)

// Network model types.
type (
	// Network is the virtual network: nodes, links, and AS structure.
	Network = model.Network
	// Node is a router or host.
	Node = model.Node
	// NodeID indexes Network.Nodes.
	NodeID = model.NodeID
	// Link is a bidirectional latency/bandwidth link.
	Link = model.Link
	// LinkID indexes Network.Links.
	LinkID = model.LinkID
	// AS is one autonomous system with its relationships.
	AS = model.AS
)

// Node kinds.
const (
	Router = model.Router
	Host   = model.Host
)

// Topology generation.
type (
	// FlatOptions configures GenerateFlat (single-AS, Section 4 of the
	// paper).
	FlatOptions = topology.FlatOptions
	// MultiASOptions configures GenerateMultiAS (maBrite, Section 5).
	MultiASOptions = mabrite.Options
)

// GenerateFlat builds a single-AS power-law network on a geographic plane.
func GenerateFlat(opts FlatOptions) (*Network, error) { return topology.GenerateFlat(opts) }

// GenerateMultiAS builds an Internet-like multi-AS network with realistic
// BGP routing configuration.
func GenerateMultiAS(opts MultiASOptions) (*Network, error) { return mabrite.Generate(opts) }

// Routing.
type (
	// Routing resolves hop-by-hop forwarding over a network, combining
	// per-AS OSPF with converged BGP4 policy routes.
	Routing = interdomain.Router
	// OSPFDomain is a single shortest-path routing domain.
	OSPFDomain = ospf.Domain
	// BGPRib is the converged inter-domain routing state.
	BGPRib = bgp.RIB
)

// NewRouting converges BGP (for multi-AS networks) and prepares OSPF
// domains. The result implements the simulator's Routes interface.
func NewRouting(net *Network) *Routing { return interdomain.New(net) }

// NewOSPF builds a standalone OSPF domain over the member nodes (nil for
// the whole network).
func NewOSPF(net *Network, members []NodeID) *OSPFDomain { return ospf.NewDomain(net, members) }

// Load-balance mapping (the paper's contribution).
type (
	// Approach identifies a mapping strategy.
	Approach = core.Approach
	// MappingConfig tunes the mapper.
	MappingConfig = core.Config
	// Mapping is a computed node→engine assignment with its achieved MLL
	// and evaluation.
	Mapping = core.Mapping
	// Profile is measured traffic from a profiling run, consumed by the
	// PROF approaches.
	Profile = profile.Profile
)

// The mapping approaches evaluated in the paper.
const (
	RANDOM = core.RANDOM
	TOP    = core.TOP
	TOP2   = core.TOP2
	PLACE  = core.PLACE
	PROF   = core.PROF
	PROF2  = core.PROF2
	HTOP   = core.HTOP
	HPROF  = core.HPROF
)

// MaxMLL is the window used when a partition cuts nothing.
const MaxMLL = core.MaxMLL

// Map partitions the network for the given approach. prof may be nil for
// non-profile-based approaches.
func Map(net *Network, a Approach, cfg MappingConfig, prof *Profile) (*Mapping, error) {
	return core.Map(net, a, cfg, prof)
}

// ProfileFromResult captures a traffic profile from a completed run.
func ProfileFromResult(res *Result, horizon Time) *Profile {
	return profile.FromResult(res, horizon)
}

// ReadProfile / WriteProfile exchange profiles through files.
func ReadProfile(r io.Reader) (*Profile, error) { return profile.Read(r) }

// Simulation.
type (
	// RunSpec is the unified run configuration: the engine count, horizon,
	// seed, real-time pacing, event cost, series resolution and telemetry
	// knobs that previously appeared — with diverging defaults and
	// validation — on SimConfig, experiments.BuildSim and the daemon's
	// runctl.Spec. Normalize applies the shared defaults, Validate the
	// shared range checks, and SimConfig() seeds a packet-simulation
	// config; the daemon's Spec embeds it and the experiments harness
	// aliases it, so a RunSpec is validated exactly once on every path.
	RunSpec = runspec.RunSpec
	// SimConfig configures a packet-level simulation in full detail:
	// the shared RunSpec knobs plus everything a spec cannot know (the
	// network, routes, partition, barrier window, transport).
	SimConfig = netsim.Config
	// Simulation is a configured simulation; inject traffic, then Run.
	Simulation = netsim.Sim
	// Result is the outcome of a run.
	Result = netsim.Result
	// Routes is the forwarding interface consumed by the simulator.
	Routes = netsim.Routes
	// SyncCostModel models the cluster's barrier cost C(N).
	SyncCostModel = cluster.SyncCostModel
)

// NewSimulation builds a simulation from the configuration.
func NewSimulation(cfg SimConfig) (*Simulation, error) { return netsim.New(cfg) }

// TeraGridSync returns the synchronization cost model fit to the paper's
// Figure 5 (the TeraGrid cluster).
func TeraGridSync() SyncCostModel { return cluster.DefaultTeraGrid() }

// MeasuredSync returns a model that measures real goroutine barrier costs
// on the host.
func MeasuredSync() SyncCostModel { return cluster.NewMeasured() }

// Traffic workloads.
type (
	// HTTPConfig describes the background web workload.
	HTTPConfig = traffic.HTTPConfig
	// HTTPStats counts background activity.
	HTTPStats = traffic.HTTPStats
	// Workflow is an application data-flow graph (GridNPB style).
	Workflow = traffic.Workflow
	// Task is one workflow node.
	Task = traffic.Task
	// WorkflowStats reports workflow rounds.
	WorkflowStats = traffic.WorkflowStats
	// ScaLapackConfig tunes the ScaLapack traffic model.
	ScaLapackConfig = traffic.ScaLapackConfig
)

// InstallHTTP wires background HTTP traffic into a simulation.
func InstallHTTP(s *Simulation, cfg HTTPConfig) *HTTPStats { return traffic.InstallHTTP(s, cfg) }

// InstallWorkflow wires an application workflow into a simulation; it
// re-runs until the horizon.
func InstallWorkflow(s *Simulation, w Workflow, start Time) (*WorkflowStats, error) {
	return traffic.InstallWorkflow(s, w, start)
}

// ScaLapackWorkflow models the ScaLapack application's traffic; hosts[0]
// is the root.
func ScaLapackWorkflow(hosts []NodeID, cfg ScaLapackConfig) Workflow {
	return traffic.ScaLapack(hosts, cfg)
}

// DefaultScaLapack returns the paper-like ScaLapack parameters.
func DefaultScaLapack() ScaLapackConfig { return traffic.DefaultScaLapack() }

// GridNPBWorkflows returns the paper's GridNPB combination: Helical Chain,
// Visualization Pipeline, and Mixed Bag.
func GridNPBWorkflows(hosts []NodeID) []Workflow { return traffic.GridNPB(hosts) }

// Hybrid flow/packet fidelity: bulk background traffic modeled
// analytically on a precomputed fluid plane while foreground traffic
// stays packet-level. Build the plane before NewSimulation and attach it
// via SimConfig.Fluid; RunSpec.FlowFidelity selects the fidelity on the
// unified run surface (experiments.BuildSim, massf -fidelity, massfd).
type (
	// FluidPlane is a precomputed, immutable flow-level traffic timeline:
	// max-min fair-share rates recomputed at every flow start/finish and
	// routing epoch, queryable as pure functions of simulated time.
	FluidPlane = fluid.Plane
	// FluidFlow is one analytic bulk transfer (Src, Dst, Bytes, Start).
	FluidFlow = fluid.Flow
	// FluidConfig configures a fluid plane build (network, routes,
	// horizon, optional fault plane and recomputation quantum).
	FluidConfig = fluid.Config
)

// Flow fidelities for RunSpec.FlowFidelity.
const (
	FidelityPacket = runspec.FidelityPacket
	FidelityHybrid = runspec.FidelityHybrid
)

// BuildFluidPlane solves the complete fluid timeline at setup time. The
// build is deterministic: the same inputs yield a byte-identical plane on
// every worker of a distributed run.
func BuildFluidPlane(cfg FluidConfig, flows []FluidFlow) (*FluidPlane, error) {
	return fluid.Build(cfg, flows)
}

// FluidHTTPWorkload compiles the HTTP background workload into fluid
// form: the initial request flows, the closed-loop chain callback for
// FluidConfig.Next, and the stats filled during the build. The RNG
// streams mirror InstallHTTP exactly, so the fluid workload is the
// analytic twin of the packet workload it replaces.
func FluidHTTPWorkload(cfg HTTPConfig, end Time) ([]FluidFlow, func(int32, Time) (FluidFlow, bool), *HTTPStats) {
	return traffic.FluidHTTP(cfg, end)
}

// Online simulation (live traffic).
type (
	// Agent bridges live goroutines and the simulated network (the
	// paper's Agent + WrapSocket).
	Agent = agent.Agent
	// Message is one live payload carried through the simulation.
	Message = agent.Message
)

// NewAgent installs a live-traffic agent on the simulation. Call before
// Run; combine with SimConfig.RealTimeFactor for wall-clock pacing.
func NewAgent(s *Simulation, pumpInterval Time) *Agent { return agent.New(s, pumpInterval) }

// Virtual compute resources (MicroGrid's CPU virtualization).
type (
	// HostCPUs maps hosts to processor-sharing virtual CPUs.
	HostCPUs = traffic.HostCPUs
)

// NewHostCPUs creates virtual CPUs for hosts (speed nil ⇒ 1.0 everywhere).
func NewHostCPUs(s *Simulation, hosts []NodeID, speed func(NodeID) float64) *HostCPUs {
	return traffic.NewHostCPUs(s, hosts, speed)
}

// MemSample is one process-memory reading: Go heap occupancy plus the
// OS-reported peak resident set.
type MemSample = memstat.Sample

// ReadMemStats samples this process's memory after a GC, so HeapInuse
// reflects live scenario state — the per-worker number the run reports
// surface.
func ReadMemStats() MemSample { return memstat.ReadStable() }

// InstallWorkflowCPU is InstallWorkflow with task compute running on the
// hosts' shared virtual CPUs (co-located tasks contend).
func InstallWorkflowCPU(s *Simulation, w Workflow, start Time, cpus *HostCPUs) (*WorkflowStats, error) {
	return traffic.InstallWorkflowCPU(s, w, start, cpus)
}

// BGP dynamics and validation studies (the paper's Section 7 future work).
type (
	// BGPSimulator is the incremental BGP state machine (announce,
	// withdraw, run to quiescence).
	BGPSimulator = bgp.Simulator
	// BeaconCycle is one announce/withdraw round of a beacon experiment.
	BeaconCycle = bgp.BeaconCycle
	// RIBComparison quantifies route-table similarity between two RIBs.
	RIBComparison = bgp.Comparison
)

// NewBGPSimulator builds an idle incremental BGP simulator over net's AS
// graph.
func NewBGPSimulator(net *Network) *BGPSimulator { return bgp.NewSimulator(net) }

// RunBeacon flaps an AS's prefix and reports per-cycle update counts and
// reachability — the BGP Beacons study.
func RunBeacon(net *Network, beaconAS int32, cycles int) []BeaconCycle {
	return bgp.RunBeacon(net, beaconAS, cycles)
}

// CompareRIBs measures the similarity of two RIBs (same paths, same next
// hops, path inflation of a over b).
func CompareRIBs(a, b *BGPRib) RIBComparison { return bgp.Compare(a, b) }

// ShortestPathRIB computes the policy-free shortest-AS-path baseline for
// path-inflation studies.
func ShortestPathRIB(net *Network) *BGPRib { return bgp.ShortestPathRIB(net) }

// Fault plane: scripted link/router churn with live reconvergence.
type (
	// FaultScript is a serializable fault timeline (explicit events or
	// seeded-random via GenerateFaults) plus the convergence-delay model.
	// Attach it to RunSpec.Faults or compile it with NewFaultPlane.
	FaultScript = faults.Script
	// FaultEvent is one scripted fault.
	FaultEvent = faults.Event
	// FaultGenOptions parameterizes the seeded-random script generator.
	FaultGenOptions = faults.GenOptions
	// FaultPlane is a compiled, immutable fault script: per-epoch routing
	// tables plus link/node availability as pure functions of simulated
	// time. Set SimConfig.Faults to inject it into a simulation.
	FaultPlane = faults.Plane
	// FaultInfo is the per-fault reconvergence report (update messages,
	// modeled convergence delay, when new routes took effect).
	FaultInfo = faults.FaultInfo
)

// Fault event kinds.
const (
	LinkFaultDown = faults.LinkDown
	LinkFaultUp   = faults.LinkUp
	NodeFaultDown = faults.NodeDown
	NodeFaultUp   = faults.NodeUp
	LinkFaultFlap = faults.LinkFlap
)

// NewFaultPlane compiles a fault script against a network and its
// converged routing: every routing epoch (post-fault OSPF/BGP state and
// when it takes effect) is precomputed here, so the simulation's hot path
// only does time-indexed lookups. Assign the result to SimConfig.Faults.
func NewFaultPlane(net *Network, routes *Routing, script *FaultScript) (*FaultPlane, error) {
	return faults.NewPlane(net, routes, script)
}

// LoadFaultScript reads and structurally validates a JSON fault script.
func LoadFaultScript(r io.Reader) (*FaultScript, error) { return faults.Load(r) }

// GenerateFaults produces a seeded-random fault script for net: transient
// link outages, flaps, router outages and permanent failures landing
// inside the given horizon.
func GenerateFaults(net *Network, opt FaultGenOptions) *FaultScript {
	return faults.Generate(net, opt)
}

// Live observability (the telemetry subsystem behind cmd/massfd).
type (
	// Telemetry bundles the live instruments of one run: atomic counters,
	// gauges and histograms plus the per-window trace ring. Set
	// SimConfig.Telemetry before NewSimulation; nil disables
	// instrumentation at zero cost. Its massf_net_* counters are folded
	// once per window from the counters Result is built from, so they
	// always agree with Result.
	Telemetry = telemetry.SimTelemetry
	// TelemetryWindow is one barrier window's trace record.
	TelemetryWindow = telemetry.WindowRecord
	// MetricPoint is a point-in-time snapshot of one metric, renderable
	// as Prometheus text exposition or NDJSON.
	MetricPoint = telemetry.Point
)

// NewTelemetry creates the telemetry bundle for a run with the given
// engine count. Pass it via SimConfig.Telemetry; read live windows from
// Telemetry.Windows (Subscribe streams them as they execute) and snapshot
// metrics from Telemetry.Reg (WritePrometheus / WriteNDJSON). Use one
// Telemetry per run — the engine closes the window ring when the run ends.
func NewTelemetry(engines int) *Telemetry { return telemetry.New(engines, 4096) }

// Flight recorder: trace export and straggler analysis of a recording.
type (
	// TraceEvent is one Chrome trace-event (the format Perfetto loads).
	TraceEvent = telemetry.TraceEvent
	// TraceLane is an extra trace row drawn in simulated time beside the
	// engine tracks (PathLanes builds one per sampled packet).
	TraceLane = telemetry.Lane
	// FlightReport is the straggler/critical-path analysis of a recording.
	FlightReport = flight.Report
	// WindowAnalysis diagnoses one barrier window (bounding engine,
	// windowed parallel efficiency).
	WindowAnalysis = flight.WindowAnalysis
	// EngineBreakdown aggregates one engine's phase times over a recording.
	EngineBreakdown = flight.EngineBreakdown
	// RouterLoad names a simulated node's share of an engine's load.
	RouterLoad = flight.RouterLoad
)

// BuildTraceEvents converts a window recording (Telemetry.Windows
// snapshot) into Chrome trace events: one track per engine with
// compute/barrier/exchange slices per barrier window. setupNS (may be
// nil) adds a leading "setup" slice per track — setupNS[e] is the
// scenario build wall time of the worker hosting engine e. lanes (may be
// nil, e.g. PathLanes of a run's sampled paths) are drawn beside the
// tracks, their simulated time projected onto the same timeline so each
// slice sits inside the window that carried it.
func BuildTraceEvents(recs []TelemetryWindow, setupNS []int64, lanes []TraceLane) []TraceEvent {
	return telemetry.BuildTraceEvents(recs, setupNS, lanes)
}

// WriteChromeTrace writes trace events (BuildTraceEvents) as one Chrome
// trace-event JSON document, loadable in ui.perfetto.dev or
// chrome://tracing. meta is attached as otherData (may be nil).
func WriteChromeTrace(w io.Writer, events []TraceEvent, meta map[string]string) error {
	return telemetry.WriteChromeTrace(w, events, meta)
}

// AnalyzeFlight diagnoses a recording: per-window bounding engine and
// parallel efficiency, per-engine phase breakdown, and the top-K
// straggler ranking (topK ≤ 0 means 3). Call AttributeRouters on the
// result with the run's partition and measured per-node event counts to
// name the simulated routers dominating each straggler.
func AnalyzeFlight(recs []TelemetryWindow, topK int) *FlightReport {
	return flight.Analyze(recs, topK)
}

// Network observability (the netmon plane): per-link windowed telemetry,
// per-flow TCP records and sampled packet-path traces. Attach a plane via
// SimConfig.NetMon before NewSimulation; nil costs one check per record
// point, and every network event reaches the plane through the same
// record path that feeds Result. The same reports back massfd's GET /api/v1/runs/{id}/net/*
// endpoints and massf -netstats / -netsample.
type (
	// NetMon is a run's network observability plane.
	NetMon = netmon.Mon
	// NetMonOptions sizes a plane: link count, horizon, sampling stride,
	// optional per-link bandwidths for utilization.
	NetMonOptions = netmon.Options
	// NetMonSummary condenses a plane's output (drop split, flow counts,
	// FCT percentiles).
	NetMonSummary = netmon.Summary
	// LinkReport ranks link directions by carried bits with windowed
	// utilization/queue/drop series.
	LinkReport = netmon.LinkReport
	// LinkDirStats is one link direction's telemetry.
	LinkDirStats = netmon.LinkDirStats
	// FlowReport lists per-flow TCP records plus the flow-completion-time
	// histogram.
	FlowReport = netmon.FlowReport
	// FlowSnapshot is one completed (or in-flight) flow's record.
	FlowSnapshot = netmon.FlowSnapshot
	// HopSpan is one sampled packet's stay at one hop.
	HopSpan = netmon.HopSpan
	// PacketPath is a sampled packet's hop spans stitched into a path.
	PacketPath = netmon.Path
)

// NewNetMon creates a network observability plane. Use one per run.
func NewNetMon(o NetMonOptions) *NetMon { return netmon.New(o) }

// PathLanes turns sampled packet paths (NetMon.Spans) into trace lanes,
// one per traced packet, for BuildTraceEvents.
func PathLanes(spans []HopSpan) []TraceLane { return netmon.Lanes(spans) }

// Metrics (Section 4.1 of the paper).
type (
	// Report bundles the evaluation metrics of one run.
	Report = metrics.Report
)

// LoadImbalance is the normalized standard deviation of per-engine event
// rates.
func LoadImbalance(engineEvents []uint64) float64 { return metrics.LoadImbalance(engineEvents) }

// ParallelEfficiency is PE(N, L) = Tseq / (N · T).
func ParallelEfficiency(totalEvents uint64, eventCost Time, engines int, parallelNS int64) float64 {
	return metrics.ParallelEfficiency(totalEvents, eventCost, engines, parallelNS)
}

// ReportFor assembles the paper's metrics from a run result.
func ReportFor(approach string, res *Result, eventCost Time) Report {
	return metrics.FromStats(approach, res.Stats, eventCost)
}

// DML configuration files.

// SaveNetwork writes the network as a DML configuration document.
func SaveNetwork(w io.Writer, net *Network) error { return dml.WriteNetwork(w, net) }

// LoadNetwork reads a DML configuration document.
func LoadNetwork(r io.Reader) (*Network, error) { return dml.ReadNetwork(r) }
