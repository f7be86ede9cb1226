// Package runctl is the run-control core behind the massfd daemon: it
// accepts scenario specifications (an uploaded DML network or generator
// parameters), executes them as concurrent simulation runs under a
// bounded worker pool, and exposes each run's live telemetry — the
// per-window ring for NDJSON streaming and the metric registry for
// Prometheus scrapes.
package runctl

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"massf/internal/agent"
	"massf/internal/core"
	"massf/internal/des"
	"massf/internal/dml"
	"massf/internal/experiments"
	"massf/internal/faults"
	"massf/internal/mabrite"
	"massf/internal/memstat"
	"massf/internal/metrics"
	"massf/internal/model"
	"massf/internal/netmon"
	"massf/internal/profile"
	"massf/internal/runspec"
	"massf/internal/scache"
	"massf/internal/telemetry"
	"massf/internal/topology"
)

// FlatSpec asks for a generated single-AS power-law topology.
type FlatSpec struct {
	Routers int `json:"routers"`
	Hosts   int `json:"hosts"`
}

// MultiASSpec asks for a generated multi-AS Internet-like topology.
type MultiASSpec struct {
	ASes         int `json:"ases"`
	RoutersPerAS int `json:"routers_per_as"`
	Hosts        int `json:"hosts"`
}

// Spec is a scenario submission. Exactly one of DML, Flat or MultiAS
// selects the network; everything else has a default.
type Spec struct {
	// Name is an optional human label echoed back in listings.
	Name string `json:"name,omitempty"`

	// DML is an inline DML network description.
	DML string `json:"dml,omitempty"`
	// Flat generates a single-AS topology instead.
	Flat *FlatSpec `json:"flat,omitempty"`
	// MultiAS generates a multi-AS topology instead.
	MultiAS *MultiASSpec `json:"multias,omitempty"`

	// Approach is the mapping approach (RANDOM, TOP, TOP2, PLACE, PROF,
	// PROF2, HTOP, HPROF). Default HTOP. Profile-based approaches run a
	// sequential profiling pass first, doubling the run's cost.
	Approach string `json:"approach,omitempty"`
	// RunSpec carries the run-level knobs shared with every other launch
	// surface — engines, seconds, seed, realtime, event_cost_us,
	// series_buckets — embedded so the HTTP wire format stays flat and
	// defaults and range checks live in one place (runspec).
	runspec.RunSpec
	// App selects the foreground workload: scalapack, gridnpb or none
	// (background HTTP only). Default none.
	App string `json:"app,omitempty"`
	// Clients/Servers size the background HTTP population (defaults:
	// 80% / 20% of the hosts not claimed by the application).
	Clients int `json:"clients,omitempty"`
	Servers int `json:"servers,omitempty"`
	// Profile is an optional measured traffic profile (the massf-profile
	// text format, as served by GET /runs/{id}/profile or written by
	// massf -profile-out). When set, profile-based approaches map from
	// it directly instead of running a sequential profiling pass first —
	// the paper's measured-feedback loop over HTTP.
	Profile string `json:"profile,omitempty"`
	// Ingest exposes the run to the daemon's live agent ingest plane
	// (massfd -ingest): outside processes attach over the framed TCP
	// protocol under this run's id and inject traffic at pump epochs.
	// Ignored when the daemon runs without an ingest listener.
	Ingest bool `json:"ingest,omitempty"`
}

// normalize applies defaults in place; the shared run-level defaults come
// from runspec.
func (s *Spec) normalize() {
	s.RunSpec.Normalize()
	if s.Approach == "" {
		s.Approach = "HTOP"
	}
	if s.App == "" {
		s.App = "none"
	}
}

// validate rejects malformed specs before any work starts.
func (s *Spec) validate() error {
	sources := 0
	if s.DML != "" {
		sources++
	}
	if s.Flat != nil {
		sources++
	}
	if s.MultiAS != nil {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("runctl: spec needs exactly one of dml, flat, multias (got %d)", sources)
	}
	if _, err := ParseApproach(s.Approach); err != nil {
		return err
	}
	if _, err := parseWorkload(s.App); err != nil {
		return err
	}
	if err := s.RunSpec.Validate(); err != nil {
		return err
	}
	if s.Profile != "" {
		if _, err := profile.Read(strings.NewReader(s.Profile)); err != nil {
			return fmt.Errorf("runctl: bad profile: %w", err)
		}
	}
	return nil
}

// ParseApproach resolves a mapping-approach name (case-insensitive).
func ParseApproach(name string) (core.Approach, error) {
	switch strings.ToUpper(name) {
	case "RANDOM":
		return core.RANDOM, nil
	case "TOP":
		return core.TOP, nil
	case "TOP2":
		return core.TOP2, nil
	case "PLACE":
		return core.PLACE, nil
	case "PROF":
		return core.PROF, nil
	case "PROF2":
		return core.PROF2, nil
	case "HTOP":
		return core.HTOP, nil
	case "HPROF":
		return core.HPROF, nil
	}
	return 0, fmt.Errorf("runctl: unknown approach %q", name)
}

func parseWorkload(name string) (experiments.Workload, error) {
	switch strings.ToLower(name) {
	case "scalapack":
		return experiments.ScaLapack, nil
	case "gridnpb":
		return experiments.GridNPB, nil
	case "none", "http-only", "http":
		return experiments.HTTPOnly, nil
	}
	return 0, fmt.Errorf("runctl: unknown app %q", name)
}

// State is a run's lifecycle phase.
type State string

// Run states. queued → running → done | failed | cancelled. A run stays
// queued through admission and scenario setup, and turns running only
// when its simulation starts with every observation plane (netmon, agent
// ingest) published, so a running run always serves them. A queued run
// cancelled before that goes straight to cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// NetSummary condenses the packet-level outcome of a finished run.
type NetSummary struct {
	FlowsStarted    int    `json:"flows_started"`
	FlowsCompleted  int    `json:"flows_completed"`
	Dropped         uint64 `json:"dropped"`
	Retransmissions uint64 `json:"retransmissions"`
	DeliveredBits   uint64 `json:"delivered_bits"`
	// FaultDrops is the subset of Dropped attributed to scripted faults
	// (0 for fault-free runs).
	FaultDrops uint64 `json:"fault_drops,omitempty"`
	// Fluid* summarize the flow-level half of a hybrid-fidelity run
	// (absent for pure-packet runs).
	FluidStarted       int    `json:"fluid_started,omitempty"`
	FluidCompleted     int    `json:"fluid_completed,omitempty"`
	FluidDeliveredBits uint64 `json:"fluid_delivered_bits,omitempty"`
	// NetMon condenses the network observability plane's output when the
	// run enabled it (spec netmon / net_sample); the full reports are at
	// GET /runs/{id}/net/{links,flows,paths}.
	NetMon *netmon.Summary `json:"netmon,omitempty"`
}

// FaultRecord is one fault event's full outcome: the plane's reconvergence
// report plus the packet loss the run attributed to it. Served by
// GET /runs/{id}/faults.
type FaultRecord struct {
	faults.FaultInfo
	Drops uint64 `json:"drops"`
}

// Run is one submitted scenario. Its telemetry bundle is live from
// submission: the window ring streams while the simulation executes and
// is closed when the run reaches a terminal state.
type Run struct {
	ID   string
	Spec Spec
	Tel  *telemetry.SimTelemetry

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the run turns terminal

	// seq is the admission sequence number (FIFO order within a priority
	// class); weight is the spec's pool-slot weight clamped to the pool
	// size. Both are fixed at Submit.
	seq    uint64
	weight int

	mu            sync.Mutex
	state         State
	err           error
	submitted     time.Time
	started       time.Time
	finished      time.Time
	mllMS         float64
	setupMS       float64
	heapInuse     uint64
	peakRSS       uint64
	report        *metrics.Report
	net           *NetSummary
	part          []int32
	captured      *profile.Profile
	faultRecs     []FaultRecord
	mon           *netmon.Mon
	limitErr      error
	cancelledFrom State
	buildCached   bool
	agent         *agent.Agent
}

// NetMon returns the run's network observability plane, installed before
// the simulation starts so live endpoints can stream from it; nil when the
// spec did not enable it (or the run has not reached execution yet).
func (r *Run) NetMon() *netmon.Mon {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mon
}

func (r *Run) setNetMon(m *netmon.Mon) {
	r.mu.Lock()
	r.mon = m
	r.mu.Unlock()
}

// Faults returns the per-fault reconvergence/loss report of a finished
// run, or nil while the simulation is in flight (or the run had no fault
// script).
func (r *Run) Faults() []FaultRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.faultRecs
}

func (r *Run) setFaults(recs []FaultRecord) {
	r.mu.Lock()
	r.faultRecs = recs
	r.mu.Unlock()
}

// Partition returns the node→engine assignment the run executed under
// (nil until mapping finishes).
func (r *Run) Partition() []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.part
}

// CapturedProfile returns the traffic profile measured from the run's own
// execution — node event counts and link bits, captured when the
// simulation returns (also for cancelled runs, whose partial measurements
// are still valid rates). Nil while the simulation is in flight.
func (r *Run) CapturedProfile() *profile.Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.captured
}

func (r *Run) setPartition(part []int32) {
	r.mu.Lock()
	r.part = part
	r.mu.Unlock()
}

func (r *Run) setCaptured(p *profile.Profile) {
	r.mu.Lock()
	r.captured = p
	r.mu.Unlock()
}

// Cancel requests cooperative cancellation. Safe to call in any state;
// a queued run never starts, a running run stops at the next barrier.
func (r *Run) Cancel() { r.cancel() }

// State returns the current lifecycle phase.
func (r *Run) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// setStarted stamps the time a worker picked the run up.
func (r *Run) setStarted() {
	r.mu.Lock()
	r.started = time.Now()
	r.mu.Unlock()
}

func (r *Run) setMLL(ms float64) {
	r.mu.Lock()
	r.mllMS = ms
	r.mu.Unlock()
}

func (r *Run) setSetupMS(ms float64) {
	r.mu.Lock()
	r.setupMS = ms
	r.mu.Unlock()
}

func (r *Run) setMem(s memstat.Sample) {
	r.mu.Lock()
	r.heapInuse = s.HeapInuse
	r.peakRSS = s.PeakRSS
	r.mu.Unlock()
}

// setLimitErr records the first resource-limit violation; later ones (a
// wall and memory limit racing) are ignored.
func (r *Run) setLimitErr(err error) {
	r.mu.Lock()
	if r.limitErr == nil {
		r.limitErr = err
	}
	r.mu.Unlock()
}

func (r *Run) limitError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.limitErr
}

func (r *Run) setCancelledFrom(st State) {
	r.mu.Lock()
	if r.cancelledFrom == "" {
		r.cancelledFrom = st
	}
	r.mu.Unlock()
}

// CancelledFrom reports which lifecycle phase a cancelled run was stopped
// from ("" while the run is live or when it ended another way): "queued"
// means the run never started, "running" that a live simulation was
// stopped at a barrier.
func (r *Run) CancelledFrom() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cancelledFrom
}

func (r *Run) setBuildCached(cached bool) {
	r.mu.Lock()
	r.buildCached = cached
	r.mu.Unlock()
}

func (r *Run) setAgent(a *agent.Agent) {
	r.mu.Lock()
	r.agent = a
	r.mu.Unlock()
}

// armLimits starts the run's resource-limit enforcement: a wall-clock
// timer and a 50 ms heap sampler, each stopping the run through the
// cooperative cancellation path when its bound is exceeded. The returned
// stop function retires both; call it as soon as execute returns.
func (r *Run) armLimits() (stop func()) {
	var timer *time.Timer
	if wall := r.Spec.WallLimit(); wall > 0 {
		timer = time.AfterFunc(wall, func() {
			r.setLimitErr(fmt.Errorf("runctl: wall-clock limit %v exceeded", wall))
			r.cancel()
		})
	}
	done := make(chan struct{})
	if mem := r.Spec.MemLimitBytes(); mem > 0 {
		go func() {
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if h := memstat.Read().HeapInuse; h > mem {
						r.setLimitErr(fmt.Errorf("runctl: memory limit exceeded (heap %d MiB > %d MiB)",
							h>>20, mem>>20))
						r.cancel()
						return
					}
				}
			}
		}()
	}
	return func() {
		if timer != nil {
			timer.Stop()
		}
		close(done)
	}
}

// finish records a terminal state exactly once (later calls are ignored,
// so the panic-recovery path cannot overwrite a real outcome).
func (r *Run) finish(st State, err error, rep *metrics.Report, sum *NetSummary) {
	r.mu.Lock()
	if !r.state.Terminal() {
		r.state = st
		r.err = err
		r.report = rep
		r.net = sum
		r.finished = time.Now()
		close(r.done)
	}
	r.mu.Unlock()
}

// Done is closed once the run has reached a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Info is the JSON snapshot of a run: spec echo, lifecycle, live
// progress counters, and — once finished — the metrics report.
type Info struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	State     State     `json:"state"`
	Approach  string    `json:"approach"`
	Engines   int       `json:"engines"`
	Seconds   float64   `json:"seconds"`
	App       string    `json:"app"`
	Fidelity  string    `json:"fidelity,omitempty"`
	Seed      int64     `json:"seed"`
	Submitted time.Time `json:"submitted"`
	// Started is when a worker picked the run up and began its setup;
	// the run turns running once setup is done.
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Error    string     `json:"error,omitempty"`

	// Priority and Weight echo the scheduling knobs the run was admitted
	// under (weight after clamping to the pool size).
	Priority string `json:"priority,omitempty"`
	Weight   int    `json:"weight,omitempty"`
	// CancelledFrom distinguishes a cancellation's timing: "queued" (the
	// run never started) or "running" (a live simulation was stopped).
	CancelledFrom State `json:"cancelled_from,omitempty"`
	// BuildCached reports that the scenario build was served from the
	// daemon's setup cache instead of being regenerated.
	BuildCached bool `json:"build_cached,omitempty"`
	// Agent carries the run's live-ingest counters when the spec attached
	// it to the agent plane.
	Agent *agent.Counters `json:"agent,omitempty"`

	// Live progress, read from the run's telemetry.
	MLLms      float64 `json:"mll_ms,omitempty"`
	Windows    uint64  `json:"windows"`
	Events     uint64  `json:"events"`
	Remote     uint64  `json:"remote_events"`
	SimTimeSec float64 `json:"sim_time_sec"`

	// ProfileCaptured reports that a measured traffic profile is
	// available from GET /runs/{id}/profile.
	ProfileCaptured bool `json:"profile_captured,omitempty"`
	// FaultEvents is the number of scripted fault events the run executed;
	// the per-fault report is at GET /runs/{id}/faults.
	FaultEvents int `json:"fault_events,omitempty"`

	// SetupMS is the scenario build wall time — topology, routing, and
	// simulation construction, before the first event executes.
	SetupMS float64 `json:"setup_ms,omitempty"`
	// HeapInuse and PeakRSS are this worker process's live heap after the
	// run and its lifetime peak resident set, sampled when the simulation
	// returns. On a daemon executing runs concurrently they are
	// process-wide, not per-run.
	HeapInuse uint64 `json:"heap_inuse,omitempty"`
	PeakRSS   uint64 `json:"peak_rss,omitempty"`

	Report *metrics.Report `json:"report,omitempty"`
	Net    *NetSummary     `json:"net,omitempty"`
}

// Info snapshots the run.
func (r *Run) Info() Info {
	r.mu.Lock()
	in := Info{
		ID: r.ID, Name: r.Spec.Name, State: r.state,
		Approach: strings.ToUpper(r.Spec.Approach), Engines: r.Spec.Engines,
		Seconds: r.Spec.Seconds, App: r.Spec.App, Seed: r.Spec.Seed,
		Fidelity:  r.Spec.FlowFidelity,
		Submitted: r.submitted, MLLms: r.mllMS,
		SetupMS: r.setupMS, HeapInuse: r.heapInuse, PeakRSS: r.peakRSS,
		Report: r.report, Net: r.net,
		ProfileCaptured: r.captured != nil,
		FaultEvents:     len(r.faultRecs),
		Priority:        r.Spec.Priority,
		Weight:          r.weight,
		CancelledFrom:   r.cancelledFrom,
		BuildCached:     r.buildCached,
	}
	if r.agent != nil {
		c := r.agent.Counters()
		in.Agent = &c
	}
	if !r.started.IsZero() {
		t := r.started
		in.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		in.Finished = &t
	}
	if r.err != nil {
		in.Error = r.err.Error()
	}
	r.mu.Unlock()
	in.Windows = r.Tel.WindowsDone.Load()
	in.Events = r.Tel.Events.Load()
	in.Remote = r.Tel.RemoteEvents.Load()
	in.SimTimeSec = float64(r.Tel.SimTimeNS.Load()) / 1e9
	return in
}

// Manager owns the run table and the scheduler: a bounded admission
// queue ordered by priority class, dispatched onto a weighted worker
// pool. A run of weight w occupies w of the pool's slots while
// executing; the queue head dispatches only when its full weight fits —
// strict priority with no backfill past a blocked head, so a heavy
// high-priority run cannot be starved by a stream of light low-priority
// ones.
type Manager struct {
	workers  int
	ringCap  int
	maxQueue int
	// defaultFaults, when set, is injected into submitted specs that carry
	// no fault script of their own (the massfd -faults flag).
	defaultFaults *faults.Script
	// builds memoizes scenario construction; disk persists generated
	// topologies across restarts (nil without a cache dir).
	builds *setupCache
	disk   *scache.Cache
	// ingest, when set, is the daemon's live agent plane; runs submitted
	// with Spec.Ingest register their agent under their run id.
	ingest *agent.Ingest

	mu      sync.Mutex
	runs    map[string]*Run
	order   []string
	next    int
	queue   []*Run // admission order within class; head dispatches first
	activeW int    // pool slots occupied by dispatched runs
	shut    bool
	wg      sync.WaitGroup
}

// Options configures a Manager beyond the worker-pool basics.
type Options struct {
	// Workers is the pool size in slots (min 1). A run occupies
	// Spec.Weight slots (clamped to Workers) while executing.
	Workers int
	// RingCap is each run's telemetry window-ring capacity.
	RingCap int
	// QueueDepth bounds the admission queue; Submit fails with
	// ErrQueueFull beyond it. Default 64.
	QueueDepth int
	// SetupCacheSize is the in-memory scenario build cache capacity
	// (entries). Default 8.
	SetupCacheSize int
	// CacheDir, when non-empty, enables the on-disk topology artifact
	// tier under this directory ("auto" selects the per-user default).
	CacheDir string
	// Ingest attaches the live agent plane (nil disables Spec.Ingest).
	Ingest *agent.Ingest
}

// ErrQueueFull rejects a submission when the admission queue is at
// capacity — the service's load-shedding signal (HTTP 429).
var ErrQueueFull = fmt.Errorf("runctl: admission queue full")

// SetDefaultFaults installs a fault script applied to every submission
// lacking one. Call before serving; not synchronized against Submit.
func (m *Manager) SetDefaultFaults(sc *faults.Script) { m.defaultFaults = sc }

// NewManager returns a manager executing at most workers slot-weights of
// simulations concurrently (min 1), each with a window ring of ringCap
// records, with default scheduler knobs.
func NewManager(workers, ringCap int) *Manager {
	return NewManagerOpts(Options{Workers: workers, RingCap: ringCap})
}

// NewManagerOpts is NewManager with the full scheduler configuration.
func NewManagerOpts(o Options) *Manager {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.RingCap < 1 {
		o.RingCap = 4096
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 64
	}
	if o.SetupCacheSize < 1 {
		o.SetupCacheSize = 8
	}
	m := &Manager{
		workers:  o.Workers,
		ringCap:  o.RingCap,
		maxQueue: o.QueueDepth,
		builds:   newSetupCache(o.SetupCacheSize),
		ingest:   o.Ingest,
		runs:     map[string]*Run{},
	}
	if o.CacheDir != "" {
		dir := o.CacheDir
		if dir == "auto" {
			dir = ""
		}
		if c, err := scache.Open(dir); err == nil {
			m.disk = c
		}
	}
	return m
}

// Ingest returns the attached live agent plane (nil when disabled).
func (m *Manager) Ingest() *agent.Ingest { return m.ingest }

// Submit validates a spec and admits the run into the scheduler queue.
// The returned run is already visible to Get/List; it starts executing
// when the pool can fit its weight and everything ahead of it in
// priority order has dispatched. A full queue rejects with ErrQueueFull.
func (m *Manager) Submit(spec Spec) (*Run, error) {
	if spec.Faults == nil {
		spec.Faults = m.defaultFaults
	}
	spec.normalize()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.Weight > m.workers {
		spec.Weight = m.workers // a run can ask for the whole pool, not more
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Run{
		Spec:      spec,
		Tel:       telemetry.New(spec.Engines, m.ringCap),
		ctx:       ctx,
		cancel:    cancel,
		weight:    spec.Weight,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	m.mu.Lock()
	if len(m.queue) >= m.maxQueue {
		m.mu.Unlock()
		cancel()
		r.Tel.Windows.Close()
		return nil, ErrQueueFull
	}
	m.next++
	r.ID = fmt.Sprintf("r%04d", m.next)
	r.seq = uint64(m.next)
	m.runs[r.ID] = r
	m.order = append(m.order, r.ID)
	m.enqueueLocked(r)
	m.scheduleLocked()
	m.mu.Unlock()
	return r, nil
}

// enqueueLocked inserts r in scheduling order: descending priority rank,
// ascending admission sequence within a rank.
func (m *Manager) enqueueLocked(r *Run) {
	rank := r.Spec.PriorityRank()
	i := len(m.queue)
	for i > 0 {
		q := m.queue[i-1]
		if q.Spec.PriorityRank() >= rank {
			break
		}
		i--
	}
	m.queue = append(m.queue, nil)
	copy(m.queue[i+1:], m.queue[i:])
	m.queue[i] = r
}

// scheduleLocked dispatches queue heads while they fit in the pool.
// Strict priority: a head that does not fit blocks everything behind it
// (no backfill), so heavy runs make progress under light-run load.
func (m *Manager) scheduleLocked() {
	if m.shut {
		return
	}
	for len(m.queue) > 0 {
		r := m.queue[0]
		if r.weight > m.workers-m.activeW {
			return
		}
		m.queue = m.queue[1:]
		m.activeW += r.weight
		r.setStarted()
		m.wg.Add(1)
		go m.runLoop(r)
	}
}

// removeQueuedLocked withdraws r from the admission queue; it reports
// whether r was still queued.
func (m *Manager) removeQueuedLocked(r *Run) bool {
	for i, q := range m.queue {
		if q == r {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return true
		}
	}
	return false
}

// Get returns a run by ID.
func (m *Manager) Get(id string) (*Run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// List snapshots every run in submission order.
func (m *Manager) List() []Info {
	m.mu.Lock()
	runs := make([]*Run, 0, len(m.order))
	for _, id := range m.order {
		runs = append(runs, m.runs[id])
	}
	m.mu.Unlock()
	infos := make([]Info, len(runs))
	for i, r := range runs {
		infos[i] = r.Info()
	}
	return infos
}

// Cancel requests cancellation of a run by ID. from reports the phase
// the run was in when the request landed: a queued run is withdrawn and
// turns cancelled immediately (its simulation never started, though a
// worker may still be building its scenario); a running run stops
// cooperatively at the next barrier; a terminal run is left untouched
// (from echoes its state).
func (m *Manager) Cancel(id string) (r *Run, from State, ok bool) {
	m.mu.Lock()
	r, ok = m.runs[id]
	if !ok {
		m.mu.Unlock()
		return nil, "", false
	}
	from = r.State()
	switch from {
	case StateQueued:
		m.removeQueuedLocked(r)
		r.setCancelledFrom(StateQueued)
		r.finish(StateCancelled, nil, nil, nil)
		m.mu.Unlock()
		r.cancel()
		r.Tel.Windows.Close()
	case StateRunning:
		r.setCancelledFrom(StateRunning)
		m.mu.Unlock()
		r.cancel()
	default:
		m.mu.Unlock()
	}
	return r, from, true
}

// begin turns r running just before its simulation starts, after its
// observation planes are published. It holds m.mu, as Cancel does, so a
// cancel that found the run queued wins: begin then refuses and the
// simulation never starts.
func (m *Manager) begin(r *Run) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.ctx.Err() != nil || r.State() != StateQueued {
		return false
	}
	r.mu.Lock()
	r.state = StateRunning
	r.mu.Unlock()
	return true
}

// Shutdown cancels every run — queued runs turn cancelled immediately,
// running ones stop at their next barrier — and waits for dispatched
// workers to drain, bounded by ctx.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.shut = true
	queued := m.queue
	m.queue = nil
	for _, r := range m.runs {
		r.cancel()
	}
	m.mu.Unlock()
	for _, r := range queued {
		r.setCancelledFrom(StateQueued)
		r.finish(StateCancelled, nil, nil, nil)
		r.Tel.Windows.Close()
	}
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Gather merges daemon-level gauges with every run's registry, each run
// labeled run="<id>" — one scrape covers all concurrent simulations.
func (m *Manager) Gather() []telemetry.Point {
	m.mu.Lock()
	runs := make([]*Run, 0, len(m.order))
	for _, id := range m.order {
		runs = append(runs, m.runs[id])
	}
	m.mu.Unlock()
	counts := map[State]int{}
	for _, r := range runs {
		counts[r.State()]++
	}
	pts := make([]telemetry.Point, 0, 8+32*len(runs))
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		pts = append(pts, telemetry.Point{
			Name: "massfd_runs", Kind: "gauge",
			Help:   "Number of runs by lifecycle state.",
			Labels: map[string]string{"state": string(st)},
			Value:  float64(counts[st]),
		})
	}
	m.mu.Lock()
	queueDepth := len(m.queue)
	activeW := m.activeW
	m.mu.Unlock()
	pts = append(pts,
		telemetry.Point{
			Name: "massfd_pool_slots", Kind: "gauge",
			Help:  "Size of the simulation worker pool (slot weights).",
			Value: float64(m.workers),
		},
		telemetry.Point{
			Name: "massfd_pool_busy", Kind: "gauge",
			Help:  "Pool slot weights occupied by executing simulations.",
			Value: float64(activeW),
		},
		telemetry.Point{
			Name: "massfd_queue_depth", Kind: "gauge",
			Help:  "Runs waiting in the admission queue.",
			Value: float64(queueDepth),
		},
		telemetry.Point{
			Name: "massfd_setup_cache_entries", Kind: "gauge",
			Help:  "Scenario builds held by the in-memory setup cache.",
			Value: float64(m.builds.len()),
		})
	if m.ingest != nil {
		pts = append(pts, m.ingest.Gather()...)
	}
	for _, r := range runs {
		pts = append(pts, r.Tel.Reg.Gather(telemetry.Label{Key: "run", Value: r.ID})...)
	}
	return pts
}

// runLoop is a dispatched run's worker goroutine: execute under the
// armed resource limits and record the terminal state. The telemetry
// ring closes on every exit path so metric streams always terminate, and
// the freed pool weight reschedules the queue on the way out.
func (m *Manager) runLoop(r *Run) {
	defer m.wg.Done()
	defer func() {
		m.mu.Lock()
		m.activeW -= r.weight
		m.scheduleLocked()
		m.mu.Unlock()
	}()
	defer r.Tel.Windows.Close()
	defer func() {
		if p := recover(); p != nil {
			r.finish(StateFailed, fmt.Errorf("runctl: run panicked: %v", p), nil, nil)
		}
	}()
	if r.ctx.Err() != nil {
		r.finish(StateCancelled, nil, nil, nil)
		return
	}
	stopLimits := r.armLimits()
	rep, sum, err := m.execute(r)
	stopLimits()
	switch lerr := r.limitError(); {
	case lerr != nil:
		// A limit fired: the stop arrived through the cancellation path,
		// but the outcome is a failure, with the partial report kept.
		r.finish(StateFailed, lerr, rep, sum)
	case err != nil && r.ctx.Err() != nil:
		// Stopped before the simulation began.
		r.setCancelledFrom(StateQueued)
		r.finish(StateCancelled, nil, nil, nil)
	case err != nil:
		r.finish(StateFailed, err, nil, nil)
	case r.ctx.Err() != nil:
		// Stopped mid-simulation: keep the partial report.
		r.setCancelledFrom(StateRunning)
		r.finish(StateCancelled, nil, rep, sum)
	default:
		r.finish(StateDone, nil, rep, sum)
	}
}

// buildNetwork materializes the spec's topology source.
func buildNetwork(spec Spec) (*model.Network, bool, error) {
	switch {
	case spec.DML != "":
		net, err := dml.ReadNetwork(strings.NewReader(spec.DML))
		if err != nil {
			return nil, false, err
		}
		return net, len(net.ASes) > 1, nil
	case spec.Flat != nil:
		net, err := topology.GenerateFlat(topology.FlatOptions{
			Routers: spec.Flat.Routers, Hosts: spec.Flat.Hosts, Seed: spec.Seed,
		})
		return net, false, err
	default:
		net, err := mabrite.Generate(mabrite.Options{
			ASes: spec.MultiAS.ASes, RoutersPerAS: spec.MultiAS.RoutersPerAS,
			Hosts: spec.MultiAS.Hosts, Seed: spec.Seed,
		})
		return net, true, err
	}
}

// execute runs the full scenario pipeline: topology, setup, optional
// profiling pass, mapping, and the telemetry-instrumented simulation.
// Cancellation is checked between stages and, during simulation, via a
// watcher that calls Sim.Stop.
func (m *Manager) execute(r *Run) (*metrics.Report, *NetSummary, error) {
	spec := r.Spec
	a, err := ParseApproach(spec.Approach)
	if err != nil {
		return nil, nil, err
	}
	w, err := parseWorkload(spec.App)
	if err != nil {
		return nil, nil, err
	}
	setupStart := time.Now()
	appHosts := 7
	if w == experiments.HTTPOnly {
		appHosts = 1
	}
	// Scenario construction — topology, routing warm-up, role selection —
	// is memoized by content key: a repeat submission shares the immutable
	// built state (network, router, role slices) and pays only for a
	// shallow copy, driving submit-to-first-window latency from a rebuild
	// to milliseconds. The per-run knobs (engines, horizon, event cost)
	// are overlaid on the copy below.
	key := spec.setupKey(appHosts)
	st0, cached, err := m.builds.get(key, func() (*experiments.Setup, error) {
		net, multi, err := m.buildNetworkCached(spec)
		if err != nil {
			return nil, err
		}
		free := net.NumHosts() - appHosts
		nc, ns := spec.Clients, spec.Servers
		if nc <= 0 {
			nc = free * 4 / 5
		}
		if ns <= 0 {
			ns = free - nc
		}
		sc := experiments.Scale{
			Name: "massfd", Hosts: net.NumHosts(),
			Clients: nc, Servers: ns, AppHosts: appHosts,
			Engines:   spec.Engines,
			Horizon:   spec.Horizon(),
			EventCost: spec.EventCost(),
			Seed:      spec.Seed,
		}
		return experiments.NewSetup(net, sc, multi)
	})
	if err != nil {
		return nil, nil, err
	}
	if r.ctx.Err() != nil {
		return nil, nil, r.ctx.Err()
	}
	r.setBuildCached(cached)
	stc := *st0
	stc.Scale.Engines = spec.Engines
	stc.Scale.Horizon = spec.Horizon()
	stc.Scale.EventCost = spec.EventCost()
	stc.Profile = nil // profiles are per-run state, never shared via the cache
	st := &stc
	sc := st.Scale
	// Setup time excludes the optional profiling pass (a full simulation
	// run, not construction); the mapping + BuildSim segment is added below.
	setupNS := time.Since(setupStart)
	if a.ProfileBased() {
		if spec.Profile != "" {
			// Submit-time profile reference: map from measured rates the
			// client captured earlier (its own run, or another run's
			// GET /runs/{id}/profile) instead of re-profiling.
			p, err := profile.Read(strings.NewReader(spec.Profile))
			if err != nil {
				return nil, nil, err
			}
			if len(p.NodeEvents) != len(st.Net.Nodes) || len(p.LinkBits) != len(st.Net.Links) {
				return nil, nil, fmt.Errorf("runctl: profile shape %d nodes/%d links does not match network %d/%d",
					len(p.NodeEvents), len(p.LinkBits), len(st.Net.Nodes), len(st.Net.Links))
			}
			st.Profile = p
		} else if err := m.runProfiling(r, st, w); err != nil {
			return nil, nil, err
		}
		if r.ctx.Err() != nil {
			return nil, nil, r.ctx.Err()
		}
	}
	mapStart := time.Now()
	// Non-profile mappings are deterministic per (setup, approach,
	// engines), so the warm path reuses them from the scenario cache; a
	// profile-based mapping depends on per-run measured rates and is
	// always computed fresh.
	var mp *core.Mapping
	if a.ProfileBased() {
		mp, err = st.MapApproach(a)
	} else {
		mapKey := fmt.Sprintf("%s|e=%d", a, spec.Engines)
		mp, err = m.builds.mapping(key, mapKey, func() (*core.Mapping, error) {
			return st.MapApproach(a)
		})
	}
	if err != nil {
		return nil, nil, err
	}
	r.setMLL(mp.MLL.Millis())
	r.setPartition(mp.Part)
	sim, _, err := st.BuildSim(mp, w, runspec.RunSpec{
		Telemetry:      r.Tel,
		RealTimeFactor: spec.RealTimeFactor,
		SeriesBuckets:  256,
		Faults:         spec.Faults,
		NetMon:         spec.NetMon,
		NetSample:      spec.NetSample,
		FlowFidelity:   spec.FlowFidelity,
		FluidQuantumUS: spec.FluidQuantumUS,
	})
	if err != nil {
		return nil, nil, err
	}
	setupNS += time.Since(mapStart)
	r.setSetupMS(float64(setupNS) / 1e6)
	r.Tel.SetupNS.Set(int64(setupNS))
	// Publish the planes, then turn running: /net/* and the agent plane
	// serve from the moment the run reports running.
	r.setNetMon(sim.Config().NetMon)
	if m.ingest != nil && spec.Ingest {
		// Expose the run to the live agent plane: outside connections
		// attach under the run id and address hosts by index into the
		// setup's host table. The pump must be installed before Run.
		ag := agent.New(sim, des.Millisecond)
		r.setAgent(ag)
		m.ingest.Register(r.ID, ag, st.Hosts)
		defer func() {
			m.ingest.Unregister(r.ID)
			ag.Close()
		}()
	}
	if !m.begin(r) {
		return nil, nil, context.Canceled
	}
	release := watchCancel(r.ctx, sim.Stop)
	res := sim.Run()
	release()
	// GC-free sample: a forced GC here would delay the run turning
	// terminal, which live /net/stream clients wait for.
	r.setMem(memstat.Read())
	// Every run doubles as a profiling run: capture the measured traffic
	// so GET /runs/{id}/profile can feed it back into a later HPROF
	// submission (Section 3.3's monitoring loop, closed over HTTP).
	r.setCaptured(profile.FromResult(&res, sc.Horizon))
	rep := metrics.FromStats(a.String(), res.Stats, sc.EventCost)
	sum := &NetSummary{
		FlowsStarted: res.FlowsStarted, FlowsCompleted: res.FlowsCompleted,
		Dropped: res.Dropped, Retransmissions: res.Retransmissions,
		DeliveredBits: res.DeliveredBits,
		FluidStarted:  res.FluidStarted, FluidCompleted: res.FluidCompleted,
		FluidDeliveredBits: res.FluidDeliveredBits,
	}
	if plane, ok := sim.Config().Faults.(*faults.Plane); ok && plane != nil {
		recs := make([]FaultRecord, len(plane.Events()))
		for i, ev := range plane.Events() {
			recs[i] = FaultRecord{FaultInfo: ev}
			if i < len(res.FaultDrops) {
				recs[i].Drops = res.FaultDrops[i]
				sum.FaultDrops += res.FaultDrops[i]
			}
		}
		r.setFaults(recs)
	}
	if mon := sim.Config().NetMon; mon != nil {
		sum.NetMon = mon.Summary()
	}
	return &rep, sum, nil
}

// runProfiling is the cancellable variant of Setup.RunProfiling: the
// same sequential pass (everything on one engine, MaxMLL window, no
// telemetry — the live ring belongs to the real run), but stoppable
// through the run's context.
func (m *Manager) runProfiling(r *Run, st *experiments.Setup, w experiments.Workload) error {
	seq := *st
	seq.Scale.Engines = 1
	mp := &core.Mapping{Approach: core.RANDOM, MLL: core.MaxMLL, E: 1, Es: 1, Ec: 1}
	sim, _, err := seq.BuildSim(mp, w, runspec.RunSpec{})
	if err != nil {
		return err
	}
	release := watchCancel(r.ctx, sim.Stop)
	res := sim.Run()
	release()
	if res.Stats.Stopped {
		return r.ctx.Err()
	}
	st.Profile = profile.FromResult(&res, seq.Scale.Horizon)
	return nil
}

// watchCancel invokes stop when ctx is cancelled; the returned release
// function retires the watcher once the simulation has returned.
func watchCancel(ctx context.Context, stop func()) (release func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			stop()
		case <-done:
		}
	}()
	return func() { close(done) }
}
