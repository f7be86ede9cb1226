package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/telemetry"
)

// batch is a workload that builds a testbed and runs it to its horizon.
type batch struct {
	engines int
	horizon des.Time
	// setups and runs are the repetitions of an untraced run: setups
	// testbed builds, each from its own seed and followed by runs
	// simulations of it.
	setups, runs int
	// warmStarts and liveRounds are how many warm starts and rounds of the
	// live load each testbed carries.
	warmStarts, liveRounds int
	// setup builds the testbed from the inputs generated from seed, every
	// layer timed in its own span under parent.
	setup func(parent int, seed int64) error
	// build makes a runnable simulation of the latest testbed, with tel
	// attached when non-nil.
	build func(parent int, tel *telemetry.SimTelemetry) (*netsim.Sim, error)
	// mapping is the partition of the latest testbed.
	mapping func() *core.Mapping
	// reference runs the latest testbed's inputs on one engine.
	reference func() (netsim.Result, error)
	// hosts are the latest testbed's hosts; live builds a paced copy of
	// it for the live load (see liveSim).
	hosts func() []model.NodeID
	live  func() (*netsim.Sim, error)
}

// runBatch builds the testbed w.setups times, each time from another
// seed derived from the workload seed, so no one traffic draw and
// partition decides the run. It runs each build w.runs times, checking
// every run's model outputs against a one-engine run of the same inputs,
// and then measures its warm starts and drives the live load through it,
// so every metric spans the whole run. setup_s is set-up plus the first
// build; run_s is Sim.Run. A traced run builds once and runs twice: untraced, then with
// telemetry attached and the CPU profiler on; their ratio is
// trace.overhead.
func runBatch(b *Bench, w batch) error {
	setups, runs := w.setups, w.runs
	if b.Trace {
		setups, runs = 1, 2
	}
	profPath := filepath.Join(b.OutDir, fmt.Sprintf("%s-s%d.cpu.pprof", b.Workload, b.Seed))
	var refDigest string
	var runSamples []float64
	for s := 0; s < setups; s++ {
		// Each measured phase starts from a collected heap, as testing.B
		// does, so one phase's garbage does not bill the next.
		runtime.GC()
		root, end := b.Span("setup", 0)
		t0 := time.Now()
		err := w.setup(root, b.Seed*100+int64(s))
		var sim *netsim.Sim
		if err == nil {
			sim, err = w.build(root, nil)
		}
		end()
		if err != nil {
			return err
		}
		b.Sample("setup_s", time.Since(t0).Seconds())
		var ref netsim.Result
		seqS, err := b.Timed("pdes.seq_run", 0, func() (err error) {
			ref, err = w.reference()
			return err
		})
		if err != nil {
			return fmt.Errorf("one-engine reference: %w", err)
		}
		refDigest = Digest(&ref)
		b.Sample("pdes.seq_run_s", seqS)
		for r := 0; r < runs; r++ {
			traced := b.Trace && r == 1
			var tel *telemetry.SimTelemetry
			var stopProf func() error
			if r > 0 {
				if traced {
					tel = telemetry.New(w.engines, ringCap)
				}
				if sim, err = w.build(0, tel); err != nil {
					return err
				}
			}
			runtime.GC()
			if traced {
				if stopProf, err = StartCPUProfile(profPath); err != nil {
					return err
				}
			}
			var res netsim.Result
			runS, err := b.Timed("sim.run", 0, func() error {
				res = sim.Run()
				return res.Err
			})
			if stopProf != nil {
				if err := stopProf(); err != nil {
					return err
				}
			}
			if err != nil {
				return err
			}
			b.Check(Digest(&res) == refDigest, "setup %d run %d: k=%d result digest differs from the k=1 run of the same inputs", s, r, w.engines)
			if traced {
				b.Layer("trace.overhead", runS/Median(runSamples))
				if err := layersFromTelemetry(b, tel); err != nil {
					return err
				}
				if err := b.cpuLayers(profPath); err != nil {
					return err
				}
				continue
			}
			runSamples = append(runSamples, runS)
			b.Sample("run_s", runS)
			b.Sample("events_per_s", float64(res.TotalEvents)/runS)
			b.Sample("sim_per_wall", w.horizon.Seconds()/runS)
			b.Sample("modeled_s", float64(res.ModeledTimeNS)/1e9)
			layersFromResult(b, &res, w.mapping())
		}
		if err := FirstWindows(b, 0, w.engines, w.warmStarts, func(tel *telemetry.SimTelemetry) (*netsim.Sim, error) {
			return w.build(0, tel)
		}); err != nil {
			return err
		}
		if err := InProcessLive(b, 0, w.liveRounds, w.hosts(), w.live); err != nil {
			return err
		}
	}
	b.Layer("pdes.speedup", Median(b.samples["pdes.seq_run_s"])/Median(runSamples))
	b.mediansToE2E("setup_s", "run_s", "events_per_s", "sim_per_wall", "modeled_s")
	return nil
}

// mediansToE2E reports each named end-to-end metric as the median of its
// samples.
func (b *Bench) mediansToE2E(names ...string) {
	for _, n := range names {
		b.E2E(n, Median(b.samples[n]))
	}
}

// cpuLayers reports the package-level CPU split of the profile at path.
func (b *Bench) cpuLayers(path string) error {
	shares, err := CPUShares(path)
	if err != nil {
		return err
	}
	for l, v := range shares {
		b.Layer("cpu."+l, v)
	}
	return nil
}

// layersFromResult sets the mapping-quality, kernel and model-output
// per-layer metrics of one run.
func layersFromResult(b *Bench, res *netsim.Result, m *core.Mapping) {
	b.Layer("core.mll_ms", float64(m.MLL)/float64(des.Millisecond))
	b.Layer("core.imbalance", metrics.LoadImbalance(res.EngineEvents))
	b.Layer("pdes.windows", float64(res.Windows))
	if res.TotalEvents > 0 {
		b.Layer("pdes.remote_ratio", float64(res.RemoteEvents)/float64(res.TotalEvents))
	}
	b.Layer("des.events", float64(res.TotalEvents))
	maxPending := 0
	for _, p := range res.MaxPending {
		maxPending = max(maxPending, p)
	}
	b.Layer("des.max_pending", float64(maxPending))
	if res.FlowsStarted > 0 {
		b.Layer("netsim.flows_done_ratio", float64(res.FlowsCompleted)/float64(res.FlowsStarted))
	}
	b.Layer("netsim.drops", float64(res.Dropped))
	b.Layer("netsim.retransmits", float64(res.Retransmissions))
	b.Layer("fluid.flows", float64(res.FluidStarted))
}

// layersFromTelemetry sums the per-engine compute, barrier-wait and
// exchange times over every window record of a traced run.
func layersFromTelemetry(b *Bench, tel *telemetry.SimTelemetry) error {
	if n := tel.Windows.Total(); n > ringCap {
		return fmt.Errorf("traced run has %d windows, more than the %d the ring keeps", n, ringCap)
	}
	var compute, wait, exchange int64
	for _, rec := range tel.Windows.Snapshot() {
		for _, v := range rec.ComputeNS {
			compute += v
		}
		for _, v := range rec.BarrierWaitNS {
			wait += v
		}
		for _, v := range rec.ExchangeNS {
			exchange += v
		}
	}
	b.Layer("pdes.compute_s", float64(compute)/1e9)
	b.Layer("pdes.barrier_wait_s", float64(wait)/1e9)
	b.Layer("pdes.exchange_s", float64(exchange)/1e9)
	return nil
}
