package obs

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// The resource sampler is the background goroutine that feeds the telemetry
// rings (timeseries.go): once per period it polls procfs (resource.go), the
// Go runtime, the always-on device/batch counters (wire.go) and a few qs_*
// registry families, appends one point per series, and refreshes the
// pull-based resource gauges. Like every other hook it is nil by default —
// nothing samples until StartResourceSampler is called — and it never
// touches a solver hot path: everything it reads is either procfs or an
// atomic the solver already maintains, so a running sweep is bit-identical
// and allocation-free with the sampler on or off.

// The sampler polls every samplerPeriod and retains samplerCapacity
// points per series: ten minutes at 1 Hz.
const (
	samplerPeriod   = time.Second
	samplerCapacity = 600
	// numaEvery spaces out /proc/self/numa_maps reads: the kernel walks the
	// whole address space under mmap_sem to produce it, so once every 5
	// ticks is plenty for a placement signal that changes slowly.
	numaEvery = 5
)

// SamplerState is the most recent tick's raw reads, published atomically
// for /debug/telemetry and /healthz.
type SamplerState struct {
	TickUnixNS int64           `json:"tick_unix_ns"`
	Mem        MemStatus       `json:"mem"`
	NUMA       NUMAStatus      `json:"numa"`
	Runtime    RuntimeStatus   `json:"runtime"`
	Solver     SolverResources `json:"solver"`
}

// Sampler owns the telemetry series and the goroutine that feeds them.
type Sampler struct {
	period  time.Duration
	started time.Time
	cap     int

	rs   *runtimeSampler
	set  seriesSet
	last atomic.Pointer[SamplerState]

	stop chan struct{}
	done chan struct{}

	// Fixed series (writer-side handles; readers go through set).
	sRSS, sPeak, sHuge           *TimeSeries
	sHeap, sGoroutines, sGCPause *TimeSeries
	sPoints, sIters, sResidual   *TimeSeries
	sInflight, sDone             *TimeSeries
	sQueue, sSteals              *TimeSeries
	numaSeries                   map[int]*TimeSeries // sampler-goroutine only
}

// activeSampler is the process-wide sampler, nil until StartResourceSampler.
var activeSampler atomic.Pointer[Sampler]

// ActiveSampler returns the running process-wide sampler, or nil when
// telemetry was never started — the hook every exposition path checks.
func ActiveSampler() *Sampler { return activeSampler.Load() }

// StartResourceSampler starts the process-wide resource sampler (calling
// EnableSolverMetrics first, so the gauges it refreshes exist). Idempotent:
// a second call returns the already-running sampler unchanged.
func StartResourceSampler() *Sampler {
	return startSampler(samplerPeriod, samplerCapacity)
}

// startSampler is StartResourceSampler at a given period and per-series
// capacity; the in-package tests sample faster.
func startSampler(period time.Duration, capacity int) *Sampler {
	if s := activeSampler.Load(); s != nil {
		return s
	}
	EnableSolverMetrics()
	s := newSampler(period, capacity)
	if !activeSampler.CompareAndSwap(nil, s) {
		return activeSampler.Load()
	}
	go s.run()
	return s
}

func newSampler(period time.Duration, capacity int) *Sampler {
	s := &Sampler{
		period:     period,
		started:    time.Now(),
		cap:        capacity,
		rs:         newRuntimeSampler(),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		numaSeries: map[int]*TimeSeries{},
	}
	add := func(name, unit string, kind SeriesKind) *TimeSeries {
		ts := NewTimeSeries(name, unit, kind, capacity)
		s.set.add(ts)
		return ts
	}
	s.sRSS = add("mem.rss_bytes", "bytes", SeriesGauge)
	s.sPeak = add("mem.rss_peak_bytes", "bytes", SeriesGauge)
	s.sHuge = add("mem.anon_huge_bytes", "bytes", SeriesGauge)
	s.sHeap = add("runtime.heap_bytes", "bytes", SeriesGauge)
	s.sGoroutines = add("runtime.goroutines", "1", SeriesGauge)
	s.sGCPause = add("runtime.gc_pause_seconds", "s", SeriesCumulative)
	s.sPoints = add("sweep.points_total", "1", SeriesCumulative)
	s.sIters = add("sweep.iterations_total", "1", SeriesCumulative)
	s.sResidual = add("power.last_residual", "1", SeriesGauge)
	s.sInflight = add("batch.inflight", "1", SeriesGauge)
	s.sDone = add("batch.done_total", "1", SeriesCumulative)
	s.sQueue = add("pool.queue_depth", "1", SeriesGauge)
	s.sSteals = add("pool.steals_total", "1", SeriesCumulative)
	return s
}

// run ticks until Stop. The first tick is immediate so short-lived tools
// (a curl against a fresh process, CI smokes) see data right away.
func (s *Sampler) run() {
	defer close(s.done)
	tick := time.NewTicker(s.period)
	defer tick.Stop()
	for k := 0; ; k++ {
		s.tick(k)
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// Stop halts the sampling goroutine and waits for it to exit. The series
// remain readable (a stopped sampler just goes stale); the process-wide
// slot stays claimed, matching the one-sampler-per-process model.
func (s *Sampler) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// tick performs one sampling round: read everything, append one point per
// series, refresh the pull-based gauges, publish the raw state.
func (s *Sampler) tick(k int) {
	now := time.Now()
	mem := ReadMemStatus()
	rt := s.rs.read()
	res := ReadSolverResources()

	var numa *NUMAStatus
	if k%numaEvery == 0 {
		n := ReadNUMAStatus()
		numa = &n
	}

	if mem.Available {
		s.sRSS.Append(now, float64(mem.RSSBytes))
		s.sPeak.Append(now, float64(mem.PeakRSSBytes))
		s.sHuge.Append(now, float64(mem.AnonHugeBytes))
	}
	s.sHeap.Append(now, float64(rt.HeapBytes))
	s.sGoroutines.Append(now, float64(rt.Goroutines))
	s.sGCPause.Append(now, rt.GCPauseTotal)

	r := Default()
	if v, ok := r.Value("qs_sweep_points_total"); ok {
		s.sPoints.Append(now, v)
	}
	if v, ok := r.Value("qs_sweep_iterations_total"); ok {
		s.sIters.Append(now, v)
	}
	if v, ok := r.Value("qs_power_last_residual"); ok {
		s.sResidual.Append(now, v)
	}

	s.sInflight.Append(now, float64(res.BatchInflight))
	s.sDone.Append(now, float64(res.BatchDone))
	s.sQueue.Append(now, float64(res.PoolQueueDepth))
	s.sSteals.Append(now, float64(res.PoolStolen))

	if numa != nil && numa.Available {
		for node, b := range numa.NodeBytes {
			ts, ok := s.numaSeries[node]
			if !ok {
				ts = NewTimeSeries(fmt.Sprintf("numa.node%d_bytes", node), "bytes", SeriesGauge, s.cap)
				s.numaSeries[node] = ts
				s.set.add(ts)
			}
			ts.Append(now, float64(b))
		}
	}

	UpdateResourceGauges(mem, rt, numa, res)

	st := &SamplerState{TickUnixNS: now.UnixNano(), Mem: mem, Runtime: rt, Solver: res}
	if numa != nil {
		st.NUMA = *numa
	} else if prev := s.last.Load(); prev != nil {
		st.NUMA = prev.NUMA // carry the last placement read between NUMA ticks
	}
	s.last.Store(st)
}

// Period returns the sampling interval.
func (s *Sampler) Period() time.Duration { return s.period }

// Started returns when the sampler was created.
func (s *Sampler) Started() time.Time { return s.started }

// State returns the most recent tick's raw reads (nil before the first
// tick completes).
func (s *Sampler) State() *SamplerState { return s.last.Load() }

// Series returns every series in registration order (fixed series first,
// then lazily discovered per-NUMA-node series).
func (s *Sampler) Series() []*TimeSeries { return s.set.all() }

// Get returns the named series, or nil.
func (s *Sampler) Get(name string) *TimeSeries { return s.set.get(name) }

// Notice returns the single degradation line tools print when part of the
// telemetry is unavailable ("" when everything works). Only procfs-backed
// collectors can degrade; runtime and solver series work on every OS.
func (s *Sampler) Notice() string {
	st := s.last.Load()
	if st == nil {
		return ""
	}
	if !st.Mem.Available {
		return fmt.Sprintf("resource telemetry degraded: %s; runtime and solver series still active", st.Mem.Reason)
	}
	if !st.NUMA.Available && st.NUMA.Reason != "" {
		return fmt.Sprintf("NUMA telemetry unavailable: %s; memory and solver series still active", st.NUMA.Reason)
	}
	return ""
}

// WriteJSONL exports the retained points of every series as JSONL — the
// flight-bundle and CI artifact format.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	return WriteSeriesJSONL(w, s.Series())
}
