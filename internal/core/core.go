// Package core is the public face of the Ohm-GPU reproduction: it assembles
// a complete simulated system (GPU multiprocessor + Ohm memory system) for
// any of the paper's seven platforms and runs Table II workloads on it,
// producing the measurements the evaluation section reports (IPC, memory
// latency, channel bandwidth split, energy breakdown).
//
// Typical use:
//
//	w, _ := config.WorkloadByName("pagerank")
//	rep, _, err := core.Run(nil, config.Default(config.OhmBW, config.Planar), w)
//	fmt.Println(rep.IPC, rep.MeanLatency)
package core

import (
	"fmt"
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

// System is one fully-assembled platform instance. A System is single-use
// per workload run in the sense that caches and channel accounting carry
// over between runs; construct a fresh System per experiment cell for
// independent measurements (the experiment drivers do).
type System struct {
	Cfg config.Config
	Col *stats.Collector
	Mem *hmem.Controller
	GPU *gpu.GPU

	model energy.Model
}

// NewSystem builds a platform from a configuration into a run state; spill
// traffic takes the host link cfg.Memory.HostLink names. A nil st builds
// into a new empty state. The components are reinitialized through the
// same construction path either way (every New is NewIn(nil, ...)), which
// is what guarantees a System built into a recycled state produces
// byte-identical reports.
func NewSystem(st *RunState, cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if st == nil {
		st = new(RunState)
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

// RunTrace executes a prepared trace and returns the run report.
func (s *System) RunTrace(tr *trace.Trace) stats.Report {
	elapsed := s.GPU.Run(tr)
	s.model.Finalize(s.Col, &s.Cfg, energy.Counters{
		Elapsed:      elapsed,
		DRAMReads:    s.Mem.DRAMReads,
		DRAMWrites:   s.Mem.DRAMWrites,
		XPointReads:  s.Mem.XPointReads,
		XPointWrites: s.Mem.XPointWrites,
	})
	s.Col.Extra["l1-hit-rate"] = s.GPU.L1HitRate()
	s.Col.Extra["l2-hit-rate"] = s.GPU.L2HitRate()
	return s.Col.Snapshot(elapsed, s.Cfg.GPU.CoreFreqHz)
}

// Run simulates one cell: workload w on the platform cfg describes, built
// into st (nil builds fresh). The workload is checked (Validate and the
// trace-page budget) before its trace is looked up, so a definition
// decoded from an untrusted spec or the wire cannot reach trace generation
// unvalidated. The trace comes from the in-process registry, which keys on
// the full definition (traces are deterministic in the config and never
// mutated by a run).
//
// The phases are the wall-clock split of platform construction, trace
// generation (near zero when the registry already holds the trace) and the
// discrete-event loop. Timing rides alongside, never inside, the pinned
// stats.Report.
func Run(st *RunState, cfg config.Config, w config.Workload) (stats.Report, obs.Phases, error) {
	var ph obs.Phases
	if err := w.Validate(); err != nil {
		return stats.Report{}, ph, fmt.Errorf("core: %w", err)
	}
	t := time.Now()
	sys, err := NewSystem(st, cfg)
	ph.PlatformBuild = time.Since(t)
	if err != nil {
		return stats.Report{}, ph, err
	}
	// After NewSystem: the budget divides by a page size only a valid
	// config guarantees to be positive.
	if err := config.ValidateTraceBudget(w, &sys.Cfg); err != nil {
		return stats.Report{}, ph, fmt.Errorf("core: %w", err)
	}
	t = time.Now()
	tr := trace.Cached(w, &sys.Cfg)
	ph.TraceGen = time.Since(t)
	t = time.Now()
	rep := sys.RunTrace(tr)
	ph.EventLoop = time.Since(t)
	return rep, ph, nil
}
