package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/hmem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// RunState owns the recyclable allocations of one simulation run: the
// device structures (GPU, memory controllers, caches, channel models), the
// stats counter arenas, the event-heap arena and the resource pools. A
// sweep cell acquires one, builds its System into it, and releases it for
// the next cell — warm cells then reuse the previous cell's arrays instead
// of reallocating them.
//
// A RunState must never back two live Systems at once: the System returned
// by NewSystemIn aliases the state's components, so release it only after
// the run's Report has been taken (reports are value snapshots and remain
// valid afterwards).
type RunState struct {
	col   *stats.Collector
	pools *sim.Pools
	mem   *hmem.Controller
	gpu   *gpu.GPU
}

// runStatePool recycles RunStates across cells. sync.Pool gives scheduler-
// friendly per-P caching under the batch runner's worker parallelism and
// lets idle state be garbage collected between sweeps.
var runStatePool = sync.Pool{New: func() any { return new(RunState) }}

// AcquireRunState takes a recycled run state (or a fresh empty one) from
// the process-wide pool.
func AcquireRunState() *RunState {
	return runStatePool.Get().(*RunState)
}

// ReleaseRunState returns a state to the pool. The caller must no longer
// hold a System built into it. Safe on nil.
func ReleaseRunState(st *RunState) {
	if st != nil {
		runStatePool.Put(st)
	}
}

// NewSystemIn is NewSystem building into a recycled run state. A nil st
// falls back to fresh construction, so callers can thread an optional
// state through unconditionally. The components are reinitialized through
// the same construction path fresh builds use (every New is NewIn(nil,
// ...)), which is what guarantees a pooled System produces byte-identical
// reports.
func NewSystemIn(st *RunState, cfg config.Config) (*System, error) {
	if st == nil {
		return NewSystem(cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if st.col == nil {
		st.col = stats.NewCollector()
	} else {
		st.col.Reset()
	}
	if st.pools == nil {
		st.pools = &sim.Pools{}
	}
	st.pools.Reset()
	mem, err := hmem.NewIn(st.mem, st.pools, &cfg, st.col, nil)
	if err != nil {
		return nil, fmt.Errorf("core: memory system: %w", err)
	}
	st.mem = mem
	g, err := gpu.NewIn(st.gpu, st.pools, &cfg, st.col, mem)
	if err != nil {
		return nil, fmt.Errorf("core: gpu: %w", err)
	}
	st.gpu = g
	return &System{Cfg: cfg, Col: st.col, Mem: mem, GPU: g, model: energy.Default()}, nil
}

// RunConfigTimedIn is RunConfigTimed building the platform into a recycled
// run state (nil st = fresh).
func RunConfigTimedIn(st *RunState, cfg config.Config, workload string) (stats.Report, obs.Phases, error) {
	var ph obs.Phases
	t := time.Now()
	sys, err := NewSystemIn(st, cfg)
	ph.PlatformBuild = time.Since(t)
	if err != nil {
		return stats.Report{}, ph, err
	}
	t = time.Now()
	tr, err := trace.CachedByName(workload, &sys.Cfg)
	ph.TraceGen = time.Since(t)
	if err != nil {
		return stats.Report{}, ph, err
	}
	t = time.Now()
	rep := sys.RunTrace(tr)
	ph.EventLoop = time.Since(t)
	return rep, ph, nil
}

// RunWorkloadDefTimedIn is RunWorkloadDefTimed building the platform into
// a recycled run state (nil st = fresh).
func RunWorkloadDefTimedIn(st *RunState, cfg config.Config, w config.Workload) (stats.Report, obs.Phases, error) {
	var ph obs.Phases
	t := time.Now()
	sys, err := NewSystemIn(st, cfg)
	ph.PlatformBuild = time.Since(t)
	if err != nil {
		return stats.Report{}, ph, err
	}
	t = time.Now()
	tr := trace.Cached(w, &sys.Cfg)
	ph.TraceGen = time.Since(t)
	t = time.Now()
	rep := sys.RunTrace(tr)
	ph.EventLoop = time.Since(t)
	return rep, ph, nil
}
