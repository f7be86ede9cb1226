package main

import (
	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/fluid"
	"massf/internal/mabrite"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/routing/interdomain"
	"massf/internal/telemetry"
	"massf/internal/traffic"
)

// fig10Clients is the closed-loop HTTP client population of the fluid
// background: the shape of the 1M-client hybrid scale run, scaled down.
const fig10Clients = 20_000

// runFig10 is the Section 5 testbed at hybrid fidelity: a multi-AS
// network of 20 AS × 100 routers and 1000 hosts under BGP policy plus
// per-AS OSPF, ~20k HTTP clients on the fluid plane, the GridNPB
// foreground packet-level, mapped with HTOP onto k=2 engines and run for
// 30 simulated seconds.
func runFig10(b *Bench) error {
	const engines = 2
	horizon := 30 * des.Second
	var (
		seed     int64
		net      *model.Network
		routes   *interdomain.Router
		hosts    []model.NodeID
		appHosts []model.NodeID
		plane    *fluid.Plane
		m        *core.Mapping
	)
	newSim := func(parent, k int, part []int32, window des.Time, tel *telemetry.SimTelemetry) (*netsim.Sim, error) {
		var sim *netsim.Sim
		err := b.LayerTime("netsim.build_s", parent, func() (err error) {
			sim, err = netsim.New(netsim.Config{
				Net: net, Routes: routes, Part: part, Engines: k,
				Window: window, End: horizon, Sync: cluster.DefaultTeraGrid(),
				EventCost: 15 * des.Microsecond, Seed: seed, Fluid: plane,
				Telemetry: tel,
			})
			if err != nil {
				return err
			}
			for _, wf := range traffic.GridNPB(appHosts) {
				if _, err := traffic.InstallWorkflow(sim, wf, 0); err != nil {
					return err
				}
			}
			return nil
		})
		return sim, err
	}
	window := func() des.Time { return min(m.MLL, core.MaxMLL) }

	return runBatch(b, batch{
		engines:    engines,
		horizon:    horizon,
		setups:     b.Count(2, 2),
		runs:       3,
		warmStarts: minFirstWindows / 2,
		liveRounds: liveRounds / 2,
		setup: func(parent int, s int64) error {
			seed = s
			if err := b.LayerTime("topology.gen_s", parent, func() (err error) {
				net, err = mabrite.Generate(mabrite.Options{ASes: 20, RoutersPerAS: 100, Hosts: 1000, Seed: topoSeed})
				return err
			}); err != nil {
				return err
			}
			hosts = hostsOf(net)
			if err := b.LayerTime("routing.build_s", parent, func() error {
				routes = interdomain.New(net)
				routes.Prepare(hosts)
				return nil
			}); err != nil {
				return err
			}
			// Roles as in the paper's testbed: 7 spread application
			// hosts, 190 servers, and the clients cycling over the rest.
			appHosts = nil
			step := len(hosts) / 7
			for i := 0; i < 7; i++ {
				appHosts = append(appHosts, hosts[i*step])
			}
			taken := map[model.NodeID]bool{}
			for _, h := range appHosts {
				taken[h] = true
			}
			var free []model.NodeID
			for _, h := range hosts {
				if !taken[h] {
					free = append(free, h)
				}
			}
			servers, rest := free[:190], free[190:]
			clients := make([]model.NodeID, fig10Clients)
			for i := range clients {
				clients[i] = rest[i%len(rest)]
			}
			if err := b.LayerTime("fluid.build_s", parent, func() (err error) {
				flows, next, _ := traffic.FluidHTTP(traffic.HTTPConfig{
					Clients: clients, Servers: servers,
					MeanGap: 5 * des.Second, MeanFileBytes: 50_000, Seed: seed,
				}, horizon)
				plane, err = fluid.Build(fluid.Config{
					Net: net, Routes: routes, End: horizon,
					Quantum: 15 * des.Millisecond, Next: next,
				}, flows)
				return err
			}); err != nil {
				return err
			}
			return b.LayerTime("core.map_s", parent, func() (err error) {
				m, err = core.Map(net, core.HTOP, core.Config{Engines: engines, Seed: seed}, nil)
				return err
			})
		},
		build: func(parent int, tel *telemetry.SimTelemetry) (*netsim.Sim, error) {
			return newSim(parent, engines, m.Part, window(), tel)
		},
		mapping: func() *core.Mapping { return m },
		reference: func() (netsim.Result, error) {
			sim, err := newSim(0, 1, nil, core.MaxMLL, nil)
			if err != nil {
				return netsim.Result{}, err
			}
			return sim.Run(), nil
		},
		hosts: func() []model.NodeID { return hosts },
		live: func() (*netsim.Sim, error) {
			return liveSim(net, routes, m, engines, seed)
		},
	})
}

// hostsOf lists the host nodes of net in id order.
func hostsOf(net *model.Network) []model.NodeID {
	var hs []model.NodeID
	for i := range net.Nodes {
		if net.Nodes[i].Kind == model.Host {
			hs = append(hs, model.NodeID(i))
		}
	}
	return hs
}
