package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"massf/internal/agent"
	"massf/internal/cluster"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/model"
	"massf/internal/netsim"
	"massf/internal/telemetry"
)

// minFirstWindows is the least warm-start sample count: enough for the
// p90 to have ten samples beyond it. It is also the block size of the
// warm-start percentiles (see Blocked).
const minFirstWindows = 100

// liveBlock is the block size of the live percentiles: the least count
// whose p99 has ten samples beyond it.
const liveBlock = 1000

// ringCap holds every window record of one run, so the traced run can sum
// the per-engine compute, barrier and exchange times over all of them.
const ringCap = 1 << 15

// FirstWindows measures warm starts: with the workload's setup already
// built, the wall time from building a simulation to its first completed
// barrier window, n times, after one collection. The window is
// observed through the program's own telemetry ring, as the service does.
// The samples join the run's first_window_ms samples; warmMetrics
// reports them once every probe has run.
func FirstWindows(b *Bench, parent, engines, n int, build func(tel *telemetry.SimTelemetry) (*netsim.Sim, error)) error {
	_, end := b.Span("probe.first_window", parent)
	defer end()
	runtime.GC()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		tel := telemetry.New(engines, 8)
		_, ch, cancel := tel.Windows.Subscribe(1)
		sim, err := build(tel)
		if err != nil {
			cancel()
			return err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			sim.Run()
		}()
		_, ok := <-ch
		d := time.Since(t0)
		sim.Stop()
		<-done
		cancel()
		b.Check(ok, "warm start %d ended before its first window", i)
		if ok {
			b.Sample("first_window_ms", d.Seconds()*1e3)
		}
	}
	return nil
}

// warmMetrics reports first_window_ms_p50/p90 from the run's warm-start
// samples, in the order taken, block by block.
func (b *Bench) warmMetrics() error {
	ms := b.samples["first_window_ms"]
	for name, p := range map[string]float64{"first_window_ms_p50": 0.5, "first_window_ms_p90": 0.9} {
		v, err := Blocked(ms, minFirstWindows, p)
		if err != nil {
			return fmt.Errorf("first window: %w", err)
		}
		b.E2E(name, v)
	}
	return nil
}

// liveMsg is one delivery seen by the live probe's listener.
type liveMsg struct {
	payload      []byte
	injNS, delNS int64 // simulated injection and delivery times
	at           time.Time
}

// LiveConn is one live connection that both sends and listens: send
// blocks while the program applies backpressure and sends message seq
// over host pair seq % livePairs; recv carries deliveries stamped with
// their wall arrival time.
type LiveConn struct {
	send func(seq int, payload []byte) error
	// Exactly one of recv (in-process, already stamped) and tcp (ingest
	// client deliveries, stamped on receipt) is set.
	recv <-chan liveMsg
	tcp  <-chan agent.Delivery
	// counters returns the program's (backpressured, dropped) counters
	// after the load.
	counters func() (backpressured, dropped uint64)
}

// ratePhase is one fixed open-loop rate of the live load.
type ratePhase struct {
	name string
	rate float64 // messages per second
}

// livePhases are the two fixed rates of every live load. Both stay below
// the rate at which the ingest plane sheds deliveries to one listening
// connection: a paced window releases its deliveries at once, and the
// server's per-connection out queue holds 256 of them, so at 20 000 msg/s
// an 18 ms window already overflows it.
var livePhases = []ratePhase{{"light", 2000}, {"heavy", 5000}}

// liveRounds is how many times one live load alternates the two phases,
// so neither rate owns one stretch of the run.
const liveRounds = 4

// phaseDur is the length of one phase of one round: 0.5 s of a 15 s run
// (1000 light messages, one block of the blocked p99), never shorter, and
// capped so a paced 30 s simulation always outlives the load.
func phaseDur(b *Bench) time.Duration {
	return min(max(b.Budget(0.5/15), 500*time.Millisecond), 3*time.Second)
}

// livePairs is how many host pairs the live load cycles through, so no
// single path decides its latency.
const livePairs = 32

// pickPairs draws livePairs (from, to) pairs of distinct host indices in
// [0, n) from the seed.
func pickPairs(seed int64, n int) [][2]int {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	pairs := make([][2]int, livePairs)
	for i := range pairs {
		pairs[i] = [2]int{perm[2*i], perm[2*i+1]}
	}
	return pairs
}

// payloadLen is the live message size: an 8-byte sequence number and a
// pattern derived from it, so corruption is detectable.
const payloadLen = 64

func makePayload(seq uint64) []byte {
	p := make([]byte, payloadLen)
	binary.LittleEndian.PutUint64(p, seq)
	for i := 8; i < payloadLen; i++ {
		p[i] = byte(seq*31 + uint64(i))
	}
	return p
}

// parsePayload returns the sequence number of an intact payload.
func parsePayload(p []byte) (uint64, bool) {
	if len(p) != payloadLen {
		return 0, false
	}
	seq := binary.LittleEndian.Uint64(p)
	for i := 8; i < payloadLen; i++ {
		if p[i] != byte(seq*31+uint64(i)) {
			return 0, false
		}
	}
	return seq, true
}

// RunLive drives an open-loop load of rounds rounds through c: each
// phase sends at its fixed rate for phaseDur, every message timed from
// when it was due, not when it was sent. It then waits for deliveries and
// records, per phase, the excess delay — wall time from due to delivery
// minus the simulated in-network time — plus the generator's lateness and
// the time Send blocked. Every message must arrive exactly once and
// intact. liveMetrics reports the excess once every load has run.
func RunLive(b *Bench, parent, rounds int, c LiveConn) error {
	runtime.GC()
	id, end := b.Span("probe.live", parent)
	defer end()
	dur := phaseDur(b)
	// Segment i sends counts[i] messages at livePhases[i%len(livePhases)].
	var counts []int
	var total int
	for r := 0; r < rounds; r++ {
		for _, ph := range livePhases {
			counts = append(counts, int(ph.rate*dur.Seconds()))
			total += counts[len(counts)-1]
		}
	}
	due := make([]time.Time, total)
	recvAt := make([]time.Time, total)
	simNS := make([]int64, total)
	seen := make([]uint8, total)
	var got atomic.Int64
	var corrupt int
	stop := make(chan struct{})
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			var m liveMsg
			select {
			case in, ok := <-c.recv:
				if !ok {
					return
				}
				m = in
			case d, ok := <-c.tcp:
				if !ok {
					return
				}
				m = liveMsg{payload: d.Payload, injNS: d.InjectedNS, delNS: d.DeliveredNS, at: time.Now()}
			case <-stop:
				return
			}
			seq, ok := parsePayload(m.payload)
			if !ok || seq >= uint64(total) {
				corrupt++
				continue
			}
			if seen[seq] == 0 {
				recvAt[seq], simNS[seq] = m.at, m.delNS-m.injNS
				got.Add(1)
			}
			seen[seq]++
		}
	}()

	var late, blocked []float64
	seq := 0
	for i, n := range counts {
		ph := livePhases[i%len(livePhases)]
		// Each phase starts from a collected heap with the previous
		// phase's messages delivered, so whether a collection lands
		// inside a phase does not decide its tail.
		quiesce(&got, seq, 60*time.Millisecond, time.Second)
		runtime.GC()
		_, pend := b.Span("probe.live."+ph.name, id)
		interval := time.Duration(float64(time.Second) / ph.rate)
		start := time.Now()
		for j := 0; j < n; j++ {
			d := start.Add(time.Duration(j) * interval)
			if w := time.Until(d); w > 0 {
				time.Sleep(w)
			}
			t0 := time.Now()
			due[seq] = d
			err := c.send(seq, makePayload(uint64(seq)))
			t1 := time.Now()
			if err != nil {
				pend()
				close(stop)
				<-recvDone
				return fmt.Errorf("live send %d (%s): %w", seq, ph.name, err)
			}
			late = append(late, t0.Sub(d).Seconds()*1e3)
			blocked = append(blocked, t1.Sub(t0).Seconds()*1e6)
			seq++
		}
		pend()
	}
	// Deliveries trail the last send by the in-network time plus pacing.
	_, wend := b.Span("probe.live.drain", id)
	quiesce(&got, total, 500*time.Millisecond, 5*time.Second)
	wend()
	close(stop)
	<-recvDone

	missing, dups := 0, 0
	for _, n := range seen {
		if n == 0 {
			missing++
		} else if n > 1 {
			dups += int(n) - 1
		}
	}
	bp, dropped := c.counters()
	// A missing message is a failed operation — the program sheds
	// deliveries under load by design, at the server (counted in dropped)
	// and in the client (uncounted). A duplicated or damaged one is a
	// wrong output.
	b.CheckN(total, missing+dups+corrupt, dups+corrupt == 0,
		"live load: %d of %d messages missing (%d counted dropped by the program), %d duplicated, %d corrupt", missing, total, dropped, dups, corrupt)

	// Each phase's messages join those of its earlier rounds, in the
	// order sent.
	first := 0
	for i, n := range counts {
		ph := livePhases[i%len(livePhases)]
		for s := first; s < first+n; s++ {
			if seen[s] == 1 {
				// Early delivery (a paced run may lead the wall clock by up
				// to a window) is as unrealistic as late, so the magnitude
				// counts.
				b.live[ph.name] = append(b.live[ph.name], math.Abs(recvAt[s].Sub(due[s]).Seconds()-float64(simNS[s])/1e9)*1e3)
			}
		}
		first += n
	}
	b.Sample("agent.send_us_p99", Percentile(blocked, 0.99))
	b.Sample("agent.gen_late_ms", Percentile(late, 0.99))
	b.Sample("agent.delivered_ratio", float64(total-missing)/float64(total))
	b.Sample("agent.backpressured", float64(bp))
	b.Sample("agent.dropped", float64(dropped))
	return nil
}

// liveMetrics reports excess_ms_p50/p99 per phase over every live message
// of the run, block by block.
func (b *Bench) liveMetrics() error {
	for _, ph := range livePhases {
		ex := b.live[ph.name]
		for _, q := range []struct {
			name string
			p    float64
		}{{"excess_ms_p50.", 0.5}, {"excess_ms_p99.", 0.99}} {
			v, err := Blocked(ex, liveBlock, q.p)
			if err != nil {
				return fmt.Errorf("live %s: %w", ph.name, err)
			}
			b.E2E(q.name+ph.name, v)
		}
		b.dists["excess_ms."+ph.name] = Summarize(ex)
	}
	return nil
}

// quiesce waits until all sent messages have been delivered, or none has
// arrived for silence (a lost message never arrives), or limit has passed.
func quiesce(got *atomic.Int64, sent int, silence, limit time.Duration) {
	deadline := time.Now().Add(limit)
	last, lastAt := got.Load(), time.Now()
	for got.Load() < int64(sent) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		if n := got.Load(); n != last {
			last, lastAt = n, time.Now()
		} else if time.Since(lastAt) > silence {
			return
		}
	}
}

// liveSim is a workload's network and partition paced at real time with
// no traffic of its own: the live load is all it carries, so the load
// measures the delay the simulator's injection and synchronization add,
// not the workload's own traffic bursts.
func liveSim(net *model.Network, routes netsim.Routes, m *core.Mapping, engines int, seed int64) (*netsim.Sim, error) {
	return netsim.New(netsim.Config{
		Net: net, Routes: routes, Part: m.Part, Engines: engines,
		Window: min(m.MLL, core.MaxMLL), End: 30 * des.Second,
		Sync: cluster.DefaultTeraGrid(), EventCost: 15 * des.Microsecond, Seed: seed,
		RealTimeFactor: 1,
	})
}

// InProcessLive attaches the in-process agent to a paced simulation and
// drives the live load through it over the seed's host pairs.
// build must return a simulation paced at real time (RealTimeFactor 1)
// whose horizon outlives the load.
func InProcessLive(b *Bench, parent, rounds int, hosts []model.NodeID, build func() (*netsim.Sim, error)) error {
	sim, err := build()
	if err != nil {
		return err
	}
	a := agent.New(sim, des.Millisecond)
	pairs := pickPairs(b.Seed, len(hosts))
	// Sized for every message of the load, so the listener never sheds.
	recv := make(chan liveMsg, 1<<18)
	for _, p := range pairs {
		a.ListenFunc(hosts[p[1]], func(m agent.Message) bool {
			select {
			case recv <- liveMsg{payload: m.Payload, injNS: int64(m.InjectedAt), delNS: int64(m.DeliveredAt), at: time.Now()}:
				return true
			default:
				return false
			}
		})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sim.Run()
	}()
	defer func() {
		sim.Stop()
		<-done
	}()
	time.Sleep(100 * time.Millisecond) // let pacing settle before the first due time
	return RunLive(b, parent, rounds, LiveConn{
		send: func(seq int, p []byte) error {
			pr := pairs[seq%livePairs]
			a.Send(hosts[pr[0]], hosts[pr[1]], p)
			return nil
		},
		recv: recv,
		counters: func() (uint64, uint64) {
			return 0, a.Counters().Dropped
		},
	})
}
