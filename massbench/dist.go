package main

import (
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync"

	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/dist"
	"massf/internal/netsim"
	"massf/internal/simcheck"
	"massf/internal/telemetry"
	"massf/internal/traffic"
)

// distScenario is the distributed workload's input: a multi-AS network of
// 20 AS × 100 routers and 1000 hosts, scripted TCP and UDP transfers plus
// background HTTP, mapped with HTOP, 10 simulated seconds. A scenario has
// one seed for its network and traffic, so the network's is fixed and the
// workload seed sets how many scripted transfers ride on it.
func distScenario(seed int64) simcheck.Scenario {
	return simcheck.Scenario{
		Seed: topoSeed, MultiAS: true, ASes: 20, RoutersPerAS: 100, Hosts: 1000,
		TCPFlows: 200 + int(seed%16), UDPSends: 200 + int(seed/16%16),
		HTTPClients: 40, HTTPServers: 10,
		Horizon: 10 * des.Second, Approach: core.HTOP, Ks: []int{2},
	}
}

// runDist runs the scenario at k=2 on two in-process workers joined to
// the coordinator over loopback TCP, every byte crossing the real wire
// protocol. The plan — run configuration and sequential reference — is
// made once, untimed; each repetition's merged observation must equal the
// reference exactly. The repetitions come in liveRounds rounds, each
// followed by its share of the warm starts and one round of the live
// load, so every metric spans the whole run.
func runDist(b *Bench) error {
	const k, workers = 2, 2
	sc := distScenario(b.Seed)
	var (
		rep *simcheck.DistReport
		rc  dist.RunConfig
	)
	if _, err := b.Timed("simcheck.plan", 0, func() (err error) {
		rep, rc, err = simcheck.PlanDistributed(sc, k, workers)
		return err
	}); err != nil {
		return err
	}
	b.Check(len(rep.DivsInProc) == 0, "in-process k=%d run diverged from the reference: %v", k, rep.DivsInProc)
	probes, err := distProbes(b, sc, k)
	if err != nil {
		return err
	}

	var runs []float64
	profPath := filepath.Join(b.OutDir, fmt.Sprintf("%s-s%d.cpu.pprof", b.Workload, b.Seed))
	rounds := liveRounds
	iterations := max(b.Count(28, 4)/rounds, 1) * rounds
	if b.Trace {
		rounds, iterations = 1, 2
	}
	warmStarts := b.Count(1000, minFirstWindows) / rounds
	for it := 0; it < iterations; it++ {
		traced := b.Trace && it == 1
		var stopProf func() error
		if traced {
			var err error
			if stopProf, err = StartCPUProfile(profPath); err != nil {
				return err
			}
		}
		runtime.GC()
		root, end := b.Span("iteration", 0)
		res, parts, serveS, err := serveOnce(b, root, rc, workers)
		end()
		if traced {
			if err := stopProf(); err != nil {
				return err
			}
		}
		if err != nil {
			return err
		}
		merged, err := simcheck.MergeObservations(parts)
		if err != nil {
			return err
		}
		divs := simcheck.Diff(rep.Ref, merged)
		b.Check(len(divs) == 0, "iteration %d: merged distributed observation diverged from the reference: %v", it, divs)

		var build int64
		var heap uint64
		for _, p := range parts {
			build = max(build, p.BuildNS)
			heap = max(heap, p.HeapInuse)
		}
		setupS := float64(build) / 1e9
		// Serve covers join, the workers' build and the windows; the run
		// is what follows the slowest worker's build.
		runS := serveS - setupS
		if traced {
			b.Layer("trace.overhead", runS/Median(runs))
			if err := b.cpuLayers(profPath); err != nil {
				return err
			}
			if err := probes(warmStarts); err != nil {
				return err
			}
			continue
		}
		runs = append(runs, runS)
		b.Sample("setup_s", setupS)
		b.Sample("run_s", runS)
		b.Sample("events_per_s", float64(merged.TotalEvents)/runS)
		b.Sample("sim_per_wall", sc.Horizon.Seconds()/runS)
		b.Sample("modeled_s", float64(res.ModeledTimeNS)/1e9)
		b.Sample("dist.worker_build_s", setupS)
		b.Sample("dist.worker_heap_mb", float64(heap)/(1<<20))
		b.Layer("dist.windows", float64(res.Windows))
		b.Layer("pdes.windows", float64(res.Windows))
		b.Layer("des.events", float64(merged.TotalEvents))
		b.Layer("netsim.drops", float64(merged.Dropped))
		b.Layer("netsim.retransmits", float64(merged.Retransmissions))
		if merged.FlowsStarted > 0 {
			b.Layer("netsim.flows_done_ratio", float64(merged.FlowsCompleted)/float64(merged.FlowsStarted))
		}
		b.Sample("dist.ms_per_window", runS*1e3/float64(res.Windows))
		if (it+1)%(iterations/rounds) == 0 {
			if err := probes(warmStarts); err != nil {
				return err
			}
		}
	}
	b.mediansToE2E("setup_s", "run_s", "events_per_s", "sim_per_wall", "modeled_s")
	return nil
}

// serveOnce coordinates one distributed run over a fresh loopback
// listener with `workers` in-process workers, and returns the decoded
// worker partials and the wall time of dist.Serve.
func serveOnce(b *Bench, parent int, rc dist.RunConfig, workers int) (*dist.Result, []*simcheck.Observation, float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	defer ln.Close()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = dist.RunWorker(ln.Addr().String(), fmt.Sprintf("worker-%d", i), simcheck.Runners(), dist.Options{})
		}(i)
	}
	var res *dist.Result
	serveS, err := b.Timed("dist.serve", parent, func() (err error) {
		res, err = dist.Serve(ln, rc, dist.Options{})
		return err
	})
	wg.Wait()
	if err != nil {
		return nil, nil, 0, err
	}
	for i, werr := range errs {
		if werr != nil {
			return nil, nil, 0, fmt.Errorf("worker %d: %w", i, werr)
		}
	}
	parts := make([]*simcheck.Observation, len(res.Payloads))
	for i, p := range res.Payloads {
		parts[i] = &simcheck.Observation{}
		if err := json.Unmarshal(p, parts[i]); err != nil {
			return nil, nil, 0, fmt.Errorf("worker %d result: %w", i, err)
		}
	}
	return res, parts, serveS, nil
}

// distProbes builds the scenario's network in one process and returns
// its probes: n warm starts, then one round of the live load — the live
// agent does not cross the distributed transport. The warm starts carry
// background HTTP in place of the scripted flows.
func distProbes(b *Bench, sc simcheck.Scenario, k int) (func(n int) error, error) {
	net, routes, hosts, err := sc.Build()
	if err != nil {
		return nil, err
	}
	m, err := core.Map(net, sc.Approach, core.Config{Engines: k, Seed: sc.Seed}, nil)
	if err != nil {
		return nil, err
	}
	newSim := func(tel *telemetry.SimTelemetry) (*netsim.Sim, error) {
		var sim *netsim.Sim
		err := b.LayerTime("netsim.build_s", 0, func() (err error) {
			sim, err = netsim.New(netsim.Config{
				Net: net, Routes: routes, Part: m.Part, Engines: k,
				Window: min(m.MLL, core.MaxMLL), End: sc.Horizon,
				Sync: cluster.DefaultTeraGrid(), EventCost: 15 * des.Microsecond, Seed: b.Seed,
				Telemetry: tel,
			})
			if err != nil {
				return err
			}
			n := len(hosts)
			traffic.InstallHTTP(sim, traffic.HTTPConfig{
				Clients: hosts[n-sc.HTTPClients:], Servers: hosts[n-sc.HTTPClients-sc.HTTPServers : n-sc.HTTPClients],
				MeanGap: 30 * des.Millisecond, MeanFileBytes: 20_000, Seed: b.Seed,
			})
			return nil
		})
		return sim, err
	}
	b.Layer("core.mll_ms", float64(m.MLL)/float64(des.Millisecond))
	return func(n int) error {
		if err := FirstWindows(b, 0, k, n, newSim); err != nil {
			return err
		}
		return InProcessLive(b, 0, 1, hosts, func() (*netsim.Sim, error) { return liveSim(net, routes, m, k, b.Seed) })
	}, nil
}
