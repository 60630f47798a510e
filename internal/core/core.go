// Package core is the public face of the Ohm-GPU reproduction: it assembles
// a complete simulated system (GPU multiprocessor + Ohm memory system) for
// any of the paper's seven platforms and runs Table II workloads on it,
// producing the measurements the evaluation section reports (IPC, memory
// latency, channel bandwidth split, energy breakdown).
//
// Typical use:
//
//	sys, err := core.NewSystem(config.Default(config.OhmBW, config.Planar))
//	rep, err := sys.RunWorkload("pagerank")
//	fmt.Println(rep.IPC, rep.MeanLatency)
package core

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/hmem"
	"repro/internal/obs"
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

// NewSystem builds a platform from a configuration; spill traffic takes
// the host link cfg.Memory.HostLink names.
func NewSystem(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	col := stats.NewCollector()
	mem, err := hmem.New(&cfg, col, nil)
	if err != nil {
		return nil, fmt.Errorf("core: memory system: %w", err)
	}
	g, err := gpu.New(&cfg, col, mem)
	if err != nil {
		return nil, fmt.Errorf("core: gpu: %w", err)
	}
	return &System{Cfg: cfg, Col: col, Mem: mem, GPU: g, model: energy.Default()}, nil
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

// RunWorkload runs the named Table II workload. The trace comes from the
// in-process registry (traces are deterministic in the config), so
// multi-cell sweeps generate each distinct trace once instead of once per
// cell; execution never mutates it.
func (s *System) RunWorkload(name string) (stats.Report, error) {
	tr, err := trace.CachedByName(name, &s.Cfg)
	if err != nil {
		return stats.Report{}, err
	}
	return s.RunTrace(tr), nil
}

// RunWorkloadDef runs an explicit workload definition — an inline custom
// workload from a scenario spec, or a Table II struct. The trace registry
// keys on the full definition, so two custom workloads sharing a name get
// distinct traces, and a definition equal to a Table II entry shares that
// entry's cached trace.
func (s *System) RunWorkloadDef(w config.Workload) stats.Report {
	return s.RunTrace(trace.Cached(w, &s.Cfg))
}

// Run builds a fresh system for (platform, mode) and runs one workload;
// this is the one-call entry point used by experiments and benchmarks.
func Run(p config.Platform, m config.MemMode, workload string) (stats.Report, error) {
	sys, err := NewSystem(config.Default(p, m))
	if err != nil {
		return stats.Report{}, err
	}
	return sys.RunWorkload(workload)
}

// RunConfig builds a system from an explicit config and runs one workload.
func RunConfig(cfg config.Config, workload string) (stats.Report, error) {
	rep, _, err := RunConfigTimed(cfg, workload)
	return rep, err
}

// RunConfigTimed is RunConfig with a wall-clock split of the three
// per-cell phases: platform construction, trace generation (near zero
// when the in-process registry already holds the trace) and the
// discrete-event loop. The report is identical to RunConfig's — timing
// rides alongside, never inside, the pinned stats.Report.
func RunConfigTimed(cfg config.Config, workload string) (stats.Report, obs.Phases, error) {
	return RunConfigTimedIn(nil, cfg, workload)
}

// RunWorkloadDef builds a system from an explicit config and runs an
// explicit workload definition (the custom-workload counterpart of
// RunConfig, used by the batch engine for spec-defined workloads).
func RunWorkloadDef(cfg config.Config, w config.Workload) (stats.Report, error) {
	rep, _, err := RunWorkloadDefTimed(cfg, w)
	return rep, err
}

// RunWorkloadDefTimed is RunWorkloadDef with the same phase split as
// RunConfigTimed.
func RunWorkloadDefTimed(cfg config.Config, w config.Workload) (stats.Report, obs.Phases, error) {
	return RunWorkloadDefTimedIn(nil, cfg, w)
}
