package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/hmem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sampleMask selects which Access calls timedMem times: one in
// sampleMask+1, chosen by a xorshift sequence so the sample cannot alias
// with periodic access patterns. Timing every call would add a clock pair
// (150 ns on a 2-vCPU Xeon virtual machine) to a call of a few hundred.
const sampleMask = 7

// timedMem is the gpu.MemAccessor the traced run installs between the GPU
// and the hmem controller. It counts every Access by direction and times
// a sample of them.
type timedMem struct {
	mem   *hmem.Controller
	rng   uint64
	calls [2]int64 // by direction: 0 read, 1 write
	timed [2]int64
	took  [2]time.Duration
}

func (t *timedMem) Access(at sim.Time, addr uint64, write bool) sim.Time {
	d := 0
	if write {
		d = 1
	}
	t.calls[d]++
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	if t.rng&sampleMask != 0 {
		return t.mem.Access(at, addr, write)
	}
	start := time.Now()
	done := t.mem.Access(at, addr, write)
	t.took[d] += time.Since(start)
	t.timed[d]++
	return done
}

// spent estimates the time all calls of a direction took from the sample.
func (t *timedMem) spent(d int) time.Duration {
	if t.timed[d] == 0 {
		return 0
	}
	return time.Duration(float64(t.took[d]) * float64(t.calls[d]) / float64(t.timed[d]))
}

// tracedSystem holds the recycled state of the traced DES path. runCell
// assembles a platform exactly as core.NewSystemWithHostIn does (collector
// and pools reset, hmem.NewIn, gpu.NewIn) and runs it as System.RunTrace
// does, so its reports must equal the batch.Runner path's. Traced, the
// GPU's memory slot holds timedMem; untraced, the controller itself. Both
// kinds of pass use the one recycled state, so the ledger and the tracing
// overhead compare cells laid out identically in memory: two separately
// allocated states differ by up to 20% per cell on a memory-bound grid.
type tracedSystem struct {
	col   *stats.Collector
	pools *sim.Pools
	mem   *hmem.Controller
	gpu   *gpu.GPU
	acc   timedMem
}

// cellLayers is one traced cell: host times per layer and the simulated
// quantities read from the layers' public counters.
type cellLayers struct {
	build, run, total time.Duration
	acc               timedMem

	xbarUtil, optData, optMem, elecBusy float64
	dramOps, xpReads, xpWrites          uint64
}

func (s *tracedSystem) runCell(c batch.Cell, traced bool) (stats.Report, cellLayers, error) {
	var cl cellLayers
	cfg := c.Config
	w, ok := config.WorkloadByName(c.Workload)
	if !ok {
		return stats.Report{}, cl, fmt.Errorf("%s: unknown workload", c)
	}
	t0 := time.Now()
	if err := cfg.Validate(); err != nil {
		return stats.Report{}, cl, err
	}
	if s.col == nil {
		s.col = stats.NewCollector()
		s.pools = &sim.Pools{}
	} else {
		s.col.Reset()
	}
	s.pools.Reset()
	mem, err := hmem.NewIn(s.mem, s.pools, &cfg, s.col, nil)
	if err != nil {
		return stats.Report{}, cl, fmt.Errorf("%s: memory system: %w", c, err)
	}
	s.mem = mem
	var slot gpu.MemAccessor = mem
	if traced {
		s.acc = timedMem{mem: mem, rng: 0x9E3779B97F4A7C15}
		slot = &s.acc
	}
	g, err := gpu.NewIn(s.gpu, s.pools, &cfg, s.col, slot)
	if err != nil {
		return stats.Report{}, cl, fmt.Errorf("%s: gpu: %w", c, err)
	}
	s.gpu = g
	cl.build = time.Since(t0)

	tr := trace.Cached(w, &cfg)
	t1 := time.Now()
	elapsed := g.Run(tr)
	cl.run = time.Since(t1)
	cl.acc = s.acc

	energy.Default().Finalize(s.col, &cfg, energy.Counters{
		Elapsed:      elapsed,
		DRAMReads:    mem.DRAMReads,
		DRAMWrites:   mem.DRAMWrites,
		XPointReads:  mem.XPointReads,
		XPointWrites: mem.XPointWrites,
	})
	s.col.Extra["l1-hit-rate"] = g.L1HitRate()
	s.col.Extra["l2-hit-rate"] = g.L2HitRate()
	rep := s.col.Snapshot(elapsed, cfg.GPU.CoreFreqHz)
	cl.total = time.Since(t0)

	if x := g.Crossbar(); x != nil {
		cl.xbarUtil = x.Utilization(elapsed)
	}
	span := float64(elapsed)
	if cfg.Platform.Optical() {
		vcs := float64(mem.Opt.VCs())
		cl.optData = float64(mem.Opt.DataBusy()) / (span * 2 * vcs)
		cl.optMem = float64(mem.Opt.MemRouteBusy()) / (span * vcs)
	} else {
		cl.elecBusy = float64(mem.Elec.Busy()) / (span * 2 * float64(mem.Elec.Channels()))
	}
	cl.dramOps = mem.DRAMReads + mem.DRAMWrites
	cl.xpReads, cl.xpWrites = mem.XPointReads, mem.XPointWrites
	return rep, cl, nil
}

// tracedLedger accumulates the passes of a traced run: untraced and
// traced passes in turn over one tracedSystem.
type tracedLedger struct {
	sys      tracedSystem
	first    []cellLayers // the first traced pass, by cell position
	all      []cellLayers // every traced cell
	cellMs   [][]float64  // untraced: whole cell, per cell position and pass
	layersMs [][]float64  // traced: build + GPU self + hmem, likewise
	passS    [2][]float64 // wall seconds per pass: [0] untraced, [1] traced
}

func newTracedLedger(n int) *tracedLedger {
	return &tracedLedger{cellMs: make([][]float64, n), layersMs: make([][]float64, n)}
}

// pass runs one pass over the grid, checking every report against the
// batch.Runner reference.
func (t *tracedLedger) pass(cells []batch.Cell, ref []stats.Report, out *outcome, traced bool) error {
	t0 := time.Now()
	for i := range cells {
		rep, cl, err := t.sys.runCell(cells[i], traced)
		if err != nil {
			return err
		}
		out.attempted++
		if err := sameReport(rep, ref[i]); err != nil {
			out.fail(fmt.Errorf("%s: core assembly (traced=%v) vs batch.Runner: %w", cells[i], traced, err))
		}
		if !traced {
			t.cellMs[i] = append(t.cellMs[i], ms(cl.total))
			continue
		}
		if len(t.first) < len(cells) {
			t.first = append(t.first, cl)
		}
		t.all = append(t.all, cl)
		t.layersMs[i] = append(t.layersMs[i], ms(cl.build+cl.run))
	}
	k := 0
	if traced {
		k = 1
	}
	t.passS[k] = append(t.passS[k], time.Since(t0).Seconds())
	return nil
}

// report derives the DES per-layer metrics and the ledger. Host times
// average over every traced cell; simulated quantities come from the first
// traced pass in grid order, so they repeat bit for bit for a seed.
func (t *tracedLedger) report(cells []batch.Cell, ref []stats.Report, out *outcome) {
	var build, hmemT, run, readT, writeT time.Duration
	var reads, writes int64
	for _, cl := range t.all {
		r, w := cl.acc.spent(0), cl.acc.spent(1)
		build += cl.build
		run += cl.run
		hmemT += r + w
		readT += r
		writeT += w
		reads += cl.acc.calls[0]
		writes += cl.acc.calls[1]
	}
	n := float64(len(t.all))
	out.values["core.build_us"] = float64(build) / float64(time.Microsecond) / n
	out.values["gpu.self_ms"] = ms(run-hmemT) / n
	out.values["hmem.share"] = float64(hmemT) / float64(run)
	out.values["hmem.read_ns"] = perCall(readT, reads)
	out.values["hmem.write_ns"] = perCall(writeT, writes)
	out.values["bench.trace_overhead"] = median(t.passS[1]) / median(t.passS[0])

	// The ledger: build + GPU self time + hmem time of a traced cell must
	// account for the whole untraced cell, both in wall time, compared as
	// the median over the grid of each cell's median.
	whole := median(cellMedians(t.cellMs))
	layers := median(cellMedians(t.layersMs))
	residual := (layers - whole) / whole
	out.detail["ledger"] = map[string]any{
		"untraced_cell_ms_p50": whole,
		"traced_layers_ms_p50": layers,
		"residual":             residual,
		"within_15pct":         math.Abs(residual) <= 0.15,
	}

	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cells[order[a]].Index < cells[order[b]].Index })
	var l1, l2, calls, reqs, migr, copyFrac, dram, xpr, xpw, logIPC float64
	var opt, optMem, elec []float64
	for _, i := range order {
		cl, r := t.first[i], ref[i]
		l1 += r.Extra["l1-hit-rate"]
		l2 += r.Extra["l2-hit-rate"]
		calls += float64(cl.acc.calls[0] + cl.acc.calls[1])
		reqs += float64(r.MemRequests)
		migr += float64(r.Migrations)
		copyFrac += r.CopyFraction
		dram += float64(cl.dramOps)
		xpr += float64(cl.xpReads)
		xpw += float64(cl.xpWrites)
		logIPC += math.Log(r.IPC)
		if cells[i].Platform.Optical() {
			opt = append(opt, cl.optData)
			optMem = append(optMem, cl.optMem)
		} else {
			elec = append(elec, cl.elecBusy)
		}
	}
	c := float64(len(cells))
	out.values["gpu.l1_hit_rate"] = l1 / c
	out.values["gpu.l2_hit_rate"] = l2 / c
	out.values["gpu.mem_requests"] = reqs / c
	out.values["gpu.sim_ipc_geomean"] = math.Exp(logIPC / c)
	out.values["hmem.access_calls"] = calls / c
	out.values["hmem.migrations"] = migr / c
	out.values["hmem.copy_fraction"] = copyFrac / c
	out.values["dram.ops"] = dram / c
	out.values["xpoint.reads"] = xpr / c
	out.values["xpoint.writes"] = xpw / c
	out.values["optical.data_busy_frac"] = mean(opt)
	out.values["optical.mem_route_busy_frac"] = mean(optMem)
	out.values["elec.busy_frac"] = mean(elec)
}

func perCall(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// freshRepeats is how many unpooled builds are timed per platform x mode.
const freshRepeats = 3

// freshBuilds times the unpooled construction the single-cell path
// (core.NewSystem, ohmsim) pays: hmem.New + gpu.New with a new collector,
// per distinct platform x mode of the grid. It returns the mean over the
// pairs of each pair's median, in ms.
func freshBuilds(cells []batch.Cell) (float64, error) {
	type pm struct {
		p config.Platform
		m config.MemMode
	}
	seen := map[pm]bool{}
	var perPair []float64
	for _, c := range cells {
		k := pm{c.Platform, c.Mode}
		if seen[k] {
			continue
		}
		seen[k] = true
		cfg := c.Config
		var reps []float64
		for i := 0; i < freshRepeats; i++ {
			t := time.Now()
			col := stats.NewCollector()
			mem, err := hmem.New(&cfg, col, nil)
			if err != nil {
				return 0, err
			}
			if _, err := gpu.New(&cfg, col, mem); err != nil {
				return 0, err
			}
			reps = append(reps, ms(time.Since(t)))
		}
		perPair = append(perPair, median(reps))
	}
	return mean(perPair), nil
}
