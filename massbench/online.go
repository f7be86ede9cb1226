package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"massf/internal/agent"
	"massf/internal/dml"
	"massf/internal/runctl"
	"massf/internal/runspec"
	"massf/internal/topology"
)

// coldSetups is how many distinct, uncached scenarios the online workload
// submits; setup_s is the median of their submit-to-first-window times.
// The warm loop then re-submits them in turn, so no one traffic draw
// decides the warm numbers; its first pass over them is warm-up, not
// sampled.
const coldSetups = 20

// service is the massfd stack in one process: the run-control manager
// behind the versioned HTTP API on loopback, and the live ingest plane on
// loopback TCP.
type service struct {
	base    string
	ingAddr string
	ing     *agent.Ingest
	mgr     *runctl.Manager
	srv     *http.Server
	done    chan error
	client  *http.Client
}

func startService() (*service, error) {
	s := &service{ing: agent.NewIngest(0), done: make(chan error, 2), client: &http.Client{Timeout: 30 * time.Second}}
	s.mgr = runctl.NewManagerOpts(runctl.Options{Workers: 2, RingCap: 1024, QueueDepth: 64, SetupCacheSize: 2 * coldSetups, Ingest: s.ing})
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ingLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: runctl.NewServer(s.mgr)}
	go func() { s.done <- s.srv.Serve(httpLn) }()
	go func() { s.done <- s.ing.Serve(ingLn) }()
	s.base = "http://" + httpLn.Addr().String() + "/api/v1"
	s.ingAddr = ingLn.Addr().String()
	return s, nil
}

// stop shuts the stack down and waits for both servers to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.mgr.Shutdown(ctx)
	s.srv.Shutdown(ctx)
	s.ing.Close()
	for i := 0; i < 2; i++ {
		if e := <-s.done; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
			err = e
		}
	}
	s.client.CloseIdleConnections()
	return err
}

func (s *service) submit(spec runctl.Spec) (runctl.Info, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return runctl.Info{}, err
	}
	resp, err := s.client.Post(s.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return runctl.Info{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return runctl.Info{}, fmt.Errorf("submit refused: %d %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	var info runctl.Info
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

func (s *service) do(method, id string) (runctl.Info, error) {
	req, err := http.NewRequest(method, s.base+"/runs/"+id, nil)
	if err != nil {
		return runctl.Info{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return runctl.Info{}, err
	}
	defer resp.Body.Close()
	var info runctl.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return runctl.Info{}, fmt.Errorf("%s run %s: %w", method, id, err)
	}
	return info, nil
}

// watch submits spec and follows the run's NDJSON window stream. first
// is submit-to-first-window: the first record means windows > 0 (a run is
// marked running before its setup is done). With wait set, watch returns
// once the stream has ended, with the run's final info.
func (s *service) watch(spec runctl.Spec, wait bool) (info runctl.Info, submitRTT, first time.Duration, err error) {
	t0 := time.Now()
	info, err = s.submit(spec)
	submitRTT = time.Since(t0)
	if err != nil {
		return info, submitRTT, 0, err
	}
	resp, err := s.client.Get(s.base + "/runs/" + info.ID + "/metrics")
	if err != nil {
		return info, submitRTT, 0, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadBytes('\n'); err != nil {
		info, _ = s.do("GET", info.ID)
		return info, submitRTT, 0, fmt.Errorf("run %s ended %s before its first window (%s)", info.ID, info.State, info.Error)
	}
	first = time.Since(t0)
	if !wait {
		return info, submitRTT, first, nil
	}
	if _, err := io.Copy(io.Discard, br); err != nil {
		return info, submitRTT, first, err
	}
	info, err = s.wait(info.ID)
	return info, submitRTT, first, err
}

// wait polls run id until it is terminal.
func (s *service) wait(id string) (runctl.Info, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		info, err := s.do("GET", id)
		if err != nil || info.State.Terminal() {
			return info, err
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("run %s still %s after 60s", id, info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// onlineNet is the online workload's network as a DML upload: a
// 200-router flat power-law network with 200 hosts, fixed like the other
// testbeds so the seed drives only traffic and mapping.
func onlineNet() (string, error) {
	net, err := topology.GenerateFlat(topology.FlatOptions{Routers: 200, Hosts: 200, Seed: topoSeed})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := dml.WriteNetwork(&sb, net); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// onlineSpec is the online workload's scenario: the DML network with HTTP
// background traffic, mapped with HTOP onto k=2 engines. Each seed is a
// distinct scenario to the setup cache.
func onlineSpec(net string, seed int64, seconds, realtime float64) runctl.Spec {
	return runctl.Spec{
		DML:      net,
		Approach: "HTOP",
		RunSpec:  runspec.RunSpec{Engines: 2, Seconds: seconds, Seed: seed, RealTimeFactor: realtime},
	}
}

// runOnline is the paper's online mode through the massfd service stack:
// cold submits of distinct scenarios (setup_s), a closed loop of warm
// re-submits of cached scenarios (first_window_ms_*, and the warm
// runs' own run_s), then a paced run with one ingest connection that
// sends open-loop at the light and heavy rates and listens for every
// message.
func runOnline(b *Bench) error {
	s, err := startService()
	if err != nil {
		return err
	}
	err = online(b, s)
	if serr := s.stop(); err == nil && serr != nil {
		err = fmt.Errorf("service shutdown: %w", serr)
	}
	return err
}

func online(b *Bench, s *service) error {
	const warmSeconds = 2.0
	net, err := onlineNet()
	if err != nil {
		return err
	}
	// Seeds of distinct scenarios, all derived from the workload seed.
	scenario := func(i int64) int64 { return b.Seed*100 + i }

	id, end := b.Span("online.cold", 0)
	var cold []float64
	for i := int64(0); i < coldSetups; i++ {
		_, send := b.Span("runctl.submit_cold", id)
		final, _, first, err := s.watch(onlineSpec(net, scenario(i), warmSeconds, 0), true)
		send()
		b.Check(err == nil, "cold submit %d: %v", i, err)
		if err != nil {
			end()
			return err
		}
		cold = append(cold, first.Seconds())
		b.Sample("setup_s", first.Seconds())
		b.Check(final.State == runctl.StateDone, "cold run %s ended %s (%s)", final.ID, final.State, final.Error)
	}
	end()
	b.E2E("setup_s", Median(cold))

	// Warm loop: a closed loop re-submitting cached scenarios, one run at
	// a time.
	var (
		firsts, submits, waits, setups, walls, events, simPerWall, modeled []float64
		hits                                                               int
	)
	traced := false
	var overheadBase float64
	var stopProf func() error
	profPath := filepath.Join(b.OutDir, fmt.Sprintf("%s-s%d.cpu.pprof", b.Workload, b.Seed))
	wid, wend := b.Span("online.warm", 0)
	samples := b.Count(5*minFirstWindows, 5*minFirstWindows)
	for i := 0; i < coldSetups+samples; i++ {
		n := i - coldSetups
		if b.Trace && !traced && n == samples/2 {
			// Second half of a traced run: profile the warm loop.
			overheadBase = Median(walls)
			var err error
			if stopProf, err = StartCPUProfile(profPath); err != nil {
				return err
			}
			traced = true
		}
		_, rend := b.Span("runctl.submit_warm", wid)
		final, rtt, first, err := s.watch(onlineSpec(net, scenario(int64(i%coldSetups)), warmSeconds, 0), true)
		rend()
		b.Check(err == nil, "warm submit %d: %v", i, err)
		if err != nil {
			wend()
			return err
		}
		b.Check(final.State == runctl.StateDone && final.Report != nil, "warm run %s ended %s (%s)", final.ID, final.State, final.Error)
		if n < 0 || final.Report == nil {
			continue
		}
		firsts = append(firsts, first.Seconds()*1e3)
		b.Sample("first_window_ms", first.Seconds()*1e3)
		submits = append(submits, rtt.Seconds()*1e3)
		if final.Started != nil {
			waits = append(waits, final.Started.Sub(final.Submitted).Seconds()*1e3)
		}
		setups = append(setups, final.SetupMS)
		if final.BuildCached {
			hits++
		}
		r := final.Report
		walls = append(walls, r.WallSec)
		events = append(events, float64(r.TotalEvents)/r.WallSec)
		simPerWall = append(simPerWall, final.Seconds/r.WallSec)
		modeled = append(modeled, r.SimTimeSec)
		b.Layer("pdes.windows", float64(final.Windows))
		b.Layer("des.events", float64(r.TotalEvents))
		b.Layer("core.mll_ms", r.AchievedMLLms)
		b.Layer("core.imbalance", r.Imbalance)
	}
	wend()
	if traced {
		if err := stopProf(); err != nil {
			return err
		}
		half := walls[len(walls)/2:]
		b.Layer("trace.overhead", Median(half)/overheadBase)
		if err := b.cpuLayers(profPath); err != nil {
			return err
		}
	}
	for name, xs := range map[string][]float64{"run_s": walls, "events_per_s": events, "sim_per_wall": simPerWall, "modeled_s": modeled} {
		for _, v := range xs {
			b.Sample(name, v)
		}
		b.E2E(name, Median(xs))
	}
	b.Layer("runctl.submit_ms_p50", Median(submits))
	b.Layer("runctl.queue_wait_ms_p50", Median(waits))
	b.Layer("runctl.setup_ms_warm", Median(setups))
	b.Layer("runctl.cache_hit_ratio", float64(hits)/float64(len(firsts)))

	return pacedIngest(b, s, net, scenario(coldSetups))
}

// pacedIngest runs the live load through one ingest connection attached
// to a paced run, then cancels the run and checks it ends cancelled.
func pacedIngest(b *Bench, s *service, net string, seed int64) error {
	id, end := b.Span("online.ingest", 0)
	defer end()
	spec := onlineSpec(net, seed, 120, 1)
	spec.Name = "ingest"
	spec.Ingest = true
	// The run registers with the ingest plane when it starts executing;
	// the first window also means pacing has begun.
	info, _, _, err := s.watch(spec, false)
	b.Check(err == nil, "paced submit: %v", err)
	if err != nil {
		return err
	}
	var cl *agent.Client
	deadline := time.Now().Add(30 * time.Second)
	for {
		cl, err = agent.Dial(s.ingAddr, info.ID, 0)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("attach to %s: %w", info.ID, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer cl.Close()
	pairs := pickPairs(seed, cl.Hosts())
	for _, p := range pairs {
		if err := cl.Listen(p[1]); err != nil {
			return err
		}
	}
	time.Sleep(100 * time.Millisecond) // let pacing settle before the first due time
	err = RunLive(b, id, liveRounds, LiveConn{
		send: func(seq int, p []byte) error {
			pr := pairs[seq%livePairs]
			return cl.Send(pr[0], pr[1], p)
		},
		tcp: cl.Deliveries(),
		counters: func() (uint64, uint64) {
			_, bp, _, dropped := s.ing.Counters()
			return bp, dropped
		},
	})
	if _, cerr := s.do("DELETE", info.ID); cerr != nil && err == nil {
		err = cerr
	}
	final, werr := s.wait(info.ID)
	if werr != nil && err == nil {
		err = werr
	}
	b.Check(final.State == runctl.StateCancelled, "paced run %s ended %s, want cancelled", final.ID, final.State)
	return err
}
