package main

import (
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/experiments"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/runspec"
	"massf/internal/telemetry"
	"massf/internal/topology"
)

// topoSeed fixes the generated networks: a workload's testbed is one
// network, as in the paper, and the workload seed drives what runs on it
// (traffic draws and the mapper's randomization).
const topoSeed = 1

// runFig6 is the paper's Section 4 testbed at experiments.Reduced() size:
// a flat power-law network of 2000 routers and 1000 hosts under OSPF, 800
// packet-level HTTP clients and 190 servers plus ScaLapack on 7 hosts,
// profiled, mapped with HPROF onto k=2 engines and run for 30 simulated
// seconds.
func runFig6(b *Bench) error {
	sc := experiments.Reduced()
	sc.Engines = 2
	sc.Horizon = 30 * des.Second
	var st *experiments.Setup
	var m *core.Mapping
	build := func(parent int, tel *telemetry.SimTelemetry) (*netsim.Sim, error) {
		var sim *netsim.Sim
		err := b.LayerTime("netsim.build_s", parent, func() (err error) {
			sim, _, err = st.BuildSim(m, experiments.ScaLapack, runspec.RunSpec{Telemetry: tel})
			return err
		})
		return sim, err
	}
	return runBatch(b, batch{
		engines:    sc.Engines,
		horizon:    sc.Horizon,
		setups:     b.Count(3, 3),
		runs:       4,
		warmStarts: 34,
		liveRounds: 2,
		setup: func(parent int, seed int64) error {
			sc.Seed = seed
			var net *model.Network
			if err := b.LayerTime("topology.gen_s", parent, func() (err error) {
				net, err = topology.GenerateFlat(topology.FlatOptions{Routers: sc.Routers, Hosts: sc.Hosts, Seed: topoSeed})
				return err
			}); err != nil {
				return err
			}
			if err := b.LayerTime("routing.build_s", parent, func() (err error) {
				st, err = experiments.NewSetup(net, sc, false)
				return err
			}); err != nil {
				return err
			}
			if err := b.LayerTime("profile.run_s", parent, func() error {
				return st.RunProfiling(experiments.ScaLapack)
			}); err != nil {
				return err
			}
			return b.LayerTime("core.map_s", parent, func() (err error) {
				m, err = st.MapApproach(core.HPROF)
				return err
			})
		},
		build:   build,
		mapping: func() *core.Mapping { return m },
		reference: func() (netsim.Result, error) {
			one := *st
			one.Scale.Engines = 1
			sim, _, err := one.BuildSim(&core.Mapping{Part: make([]int32, len(st.Net.Nodes)), MLL: core.MaxMLL}, experiments.ScaLapack, runspec.RunSpec{})
			if err != nil {
				return netsim.Result{}, err
			}
			return sim.Run(), nil
		},
		hosts: func() []model.NodeID { return st.Hosts },
		live: func() (*netsim.Sim, error) {
			return liveSim(st.Net, st.Routes, m, sc.Engines, sc.Seed)
		},
	})
}
