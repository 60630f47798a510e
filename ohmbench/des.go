package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// desInstr is the per-warp instruction budget of every DES cell: short
// enough that one pass over a grid takes seconds, long enough that the
// event loop, not construction, dominates a cell.
const desInstr = 2000

// desGrid is a cold DES sweep: the cross product of its axes, run through
// batch.Runner with one worker and no result cache, as ohmbatch runs it.
// nocProbe names the workloads whose Oracle cells a traced run also runs
// with the detailed crossbar on (see runNocProbe); the grid itself runs
// the default configuration.
type desGrid struct {
	platforms []config.Platform
	modes     []config.MemMode
	workloads []string
	overrides batch.Overrides
	nocProbe  []string
}

// cells expands the grid for a seed. The seed sets config.Seed (fresh
// traces of the same statistical shape) and the cell order; the grid's
// shape does not depend on it.
func (g desGrid) cells(seed uint64) ([]batch.Cell, error) {
	spec := batch.SweepSpec{
		Platforms:       g.platforms,
		Modes:           g.modes,
		Workloads:       g.workloads,
		Overrides:       g.overrides,
		MaxInstructions: desInstr,
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	s := configSeed(seed)
	for i := range cells {
		cells[i].Config.Seed = s
	}
	rng := rand.New(rand.NewPCG(seed, 0xce115))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells, nil
}

// configSeed maps a benchmark seed to a simulator seed (splitmix64), so
// neighbouring benchmark seeds give unrelated traces.
func configSeed(seed uint64) uint64 {
	z := seed + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// setupReps is how many times a run sets up; setup_s is the median. The
// first set-up prepares the measured phase and the rest run after it, so
// their garbage cannot raise the measured phase's peak RSS.
const setupReps = 7

// coldTraces empties the trace registry and regenerates every distinct
// trace the cells read: the work a fresh ohmbatch process pays before its
// first cell. It returns the CPU seconds the whole set-up took and each
// generation's wall time in ms.
func coldTraces(cells []batch.Cell) (float64, []float64, error) {
	trace.ResetCache()
	var perTrace []float64
	c := cpuSeconds()
	for i := range cells {
		w, ok := config.WorkloadByName(cells[i].Workload)
		if !ok {
			return 0, nil, fmt.Errorf("unknown workload %q", cells[i].Workload)
		}
		before := trace.CacheLen()
		t := time.Now()
		trace.Cached(w, &cells[i].Config)
		if d := time.Since(t); trace.CacheLen() > before {
			perTrace = append(perTrace, ms(d))
		}
	}
	return cpuSeconds() - c, perTrace, nil
}

// cpuSeconds is the user+system CPU time the process has consumed.
//
// The DES end-to-end times are CPU times. On a shared virtual machine the
// wall time also holds the time the hypervisor gave other tenants, which
// swings from run to run; the runner has one worker, so the process's CPU
// time is the cells' own work plus the garbage collector's.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// passStats accumulates the measured batch.Runner passes over a grid.
type passStats struct {
	cellMs    [][]float64 // CPU ms per cell position, one sample per pass
	passCPU   []float64   // CPU seconds per pass
	passWall  []float64   // wall seconds per pass, for the detail line
	passAlloc []float64   // bytes allocated per pass
}

// runnerPass runs one pass over the grid through the batch.Runner, timing
// every cell from the runner's progress callback, and checks it against
// the reference reports.
func (ps *passStats) runnerPass(r *batch.Runner, cells []batch.Cell, ref []stats.Report, out *outcome) {
	cpus := make([]float64, len(cells))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, c0 := time.Now(), cpuSeconds()
	last := c0
	reps, err := r.RunContext(context.Background(), cells, func(done, _ int, _ bool) {
		c := cpuSeconds()
		cpus[done-1], last = c-last, c
	})
	wall, cpu := time.Since(t0), cpuSeconds()-c0
	runtime.ReadMemStats(&m1)
	out.attempted += len(cells)
	if err != nil {
		out.failed += len(cells) - 1
		out.fail(err)
		return
	}
	if ps.cellMs == nil {
		ps.cellMs = make([][]float64, len(cells))
	}
	for i := range cells {
		if err := sameReport(reps[i], ref[i]); err != nil {
			out.fail(fmt.Errorf("%s: repeated pass: %w", cells[i], err))
		}
		ps.cellMs[i] = append(ps.cellMs[i], cpus[i]*1000)
	}
	ps.passCPU = append(ps.passCPU, cpu)
	ps.passWall = append(ps.passWall, wall.Seconds())
	ps.passAlloc = append(ps.passAlloc, float64(m1.TotalAlloc-m0.TotalAlloc))
}

// cellMedians is each cell's median over its samples, by cell position.
func cellMedians(samples [][]float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = median(s)
	}
	return out
}

func pooled(samples [][]float64) []float64 {
	var out []float64
	for _, s := range samples {
		out = append(out, s...)
	}
	return out
}

// desTail is the tail percentile des-* workloads report: a run measures a
// few hundred cells, enough for p90 but not p99.
const desTail = 90

// runDES runs one DES workload: set-up, one priming pass through the
// batch.Runner whose reports are the reference, then whole passes until
// the budget has elapsed (and, untraced, until the tail percentile has its
// samples): batch.Runner passes untraced, or untraced and traced passes of
// the benchmark's own core assembly in turn.
func runDES(g desGrid, o opts) (*outcome, error) {
	cells, err := g.cells(o.seed)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.detail["grid_size"] = len(cells)
	out.detail["instr_per_warp"] = desInstr

	firstSetup, genMs, err := coldTraces(cells)
	if err != nil {
		return nil, err
	}
	runner := batch.NewRunner(1, nil)
	ref, err := runner.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("priming pass: %w", err)
	}
	var instr uint64
	for i := range cells {
		out.attempted++
		if err := checkReport(cells[i], ref[i]); err != nil {
			out.fail(err)
		}
		instr += ref[i].Instructions
	}

	var ps passStats
	tl := newTracedLedger(len(cells))
	start := time.Now()
	for {
		if o.trace {
			if len(tl.passS[1]) > 0 && time.Since(start) >= o.budget() {
				break
			}
			for _, traced := range []bool{false, true} {
				if err := tl.pass(cells, ref, out, traced); err != nil {
					return nil, err
				}
			}
		} else {
			if time.Since(start) >= o.budget() && tailAllowed(len(ps.passCPU)*len(cells), desTail) {
				break
			}
			ps.runnerPass(runner, cells, ref, out)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var fresh float64
	if o.trace {
		if fresh, err = freshBuilds(cells); err != nil {
			return nil, err
		}
	}
	setups := []float64{firstSetup}
	for i := 1; i < setupReps; i++ {
		s, gen, err := coldTraces(cells)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		genMs = append(genMs, gen...)
	}

	if o.trace {
		out.values["trace.gen_ms"] = median(genMs)
		out.values["core.fresh_build_ms"] = fresh
		tl.report(cells, ref, out)
		if len(g.nocProbe) > 0 {
			util, err := runNocProbe(g.nocProbe, o.seed, &tl.sys, out)
			if err != nil {
				return nil, err
			}
			out.values["noc.xbar_util"] = util
		}
		return out, nil
	}

	// Each cell's time is its median over the passes, and the grid's p50
	// is the median of those: the grid's cells fall in clusters, and a
	// pooled median would sit on the edge of one. Rates and allocation are
	// medians over passes, so one pass that refills a pool the garbage
	// collector emptied does not move them.
	p50 := median(cellMedians(ps.cellMs))
	tail, err := percentile(pooled(ps.cellMs), desTail)
	if err != nil {
		return nil, fmt.Errorf("cell_ms: %w", err)
	}
	passCPU := median(ps.passCPU)
	setup := median(setups)
	out.values["ops_per_s"] = float64(len(cells)) / passCPU
	out.values["op_ms_p50"] = p50
	out.values["op_ms_tail"] = tail
	out.values["sim_minstr_per_s"] = float64(instr) / 1e6 / passCPU
	out.values["setup_s"] = setup
	out.values["peak_rss_mb"] = rss
	out.values["alloc_kb_per_op"] = median(ps.passAlloc) / 1024 / float64(len(cells))
	out.detail["named"] = map[string]any{
		"cells_per_s":      metric{out.values["ops_per_s"], "1/s"},
		"cell_ms_p50":      metric{p50, "ms"},
		"cell_ms_p90":      metric{tail, "ms"},
		"sim_minstr_per_s": metric{out.values["sim_minstr_per_s"], "Minstr/s"},
		"error_rate":       metric{float64(out.failed) / float64(out.attempted), "ratio"},
		"setup_s":          metric{setup, "s"},
		"peak_rss_mb":      metric{rss, "MB"},
		"alloc_kb_per_op":  metric{out.values["alloc_kb_per_op"], "KB"},
	}
	out.detail["highest_tail"], _ = highestTail(len(pooled(ps.cellMs)))
	out.detail["pass_cpu_s"] = ps.passCPU
	out.detail["pass_wall_s"] = ps.passWall
	return out, nil
}

// runNocProbe measures the noc layer. The detailed crossbar is off by
// default (the published calibration uses the constant-latency model), so
// no grid cell runs it; the probe runs Oracle x planar cells of the given
// workloads with gpu.noc_detailed on, once through the batch.Runner and
// once through the benchmark's assembly, checks both, and returns the
// crossbar's mean utilisation over them. Its cells run after the measured
// passes and stay out of every other metric.
func runNocProbe(workloads []string, seed uint64, sys *tracedSystem, out *outcome) (float64, error) {
	cells, err := desGrid{
		platforms: []config.Platform{config.Oracle},
		modes:     []config.MemMode{config.Planar},
		workloads: workloads,
		overrides: batch.Overrides{"gpu.noc_detailed": {true}},
	}.cells(seed)
	if err != nil {
		return 0, err
	}
	ref, err := batch.NewRunner(1, nil).Run(cells)
	if err != nil {
		return 0, fmt.Errorf("noc probe: %w", err)
	}
	var util []float64
	for i := range cells {
		out.attempted++
		if err := checkReport(cells[i], ref[i]); err != nil {
			out.fail(err)
		}
		rep, cl, err := sys.runCell(cells[i], false)
		if err != nil {
			return 0, err
		}
		if err := sameReport(rep, ref[i]); err != nil {
			out.fail(fmt.Errorf("%s: noc probe: core assembly vs batch.Runner: %w", cells[i], err))
		}
		util = append(util, cl.xbarUtil)
	}
	return mean(util), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
