// Package trace generates synthetic GPU instruction traces calibrated to
// the paper's Table II workload characteristics. The paper drives MacSim
// with Rodinia, Polybench and GraphBIG traces; we do not have those, so we
// synthesize per-warp instruction streams that reproduce the published
// memory intensity (APKI), read ratio, working-set footprint and page
// hotness skew — the four properties the evaluation actually depends on.
package trace

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/sim"
)

// Kind classifies a warp instruction.
type Kind uint8

const (
	// Compute is an ALU instruction: one cycle, no memory traffic.
	Compute Kind = iota
	// Load is a memory read at Addr.
	Load
	// Store is a memory write at Addr.
	Store
)

func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Instr is one warp-level instruction. Memory instructions carry the
// (already coalesced) line-aligned address the warp accesses.
type Instr struct {
	Kind Kind
	Addr uint64
}

// WarpTrace is the instruction stream of one warp.
type WarpTrace []Instr

// Trace is a complete workload: one stream per resident warp plus the
// footprint the streams touch.
type Trace struct {
	Name      string
	Warps     []WarpTrace
	Footprint int64 // bytes spanned by generated addresses
	PageBytes int
}

// Stats summarises a trace for calibration checks.
type Stats struct {
	Instructions int
	MemOps       int
	Loads        int
	Stores       int
	APKI         float64 // memory ops per kilo-instruction
	ReadRatio    float64
	UniquePages  int
}

// Measure recomputes the trace's aggregate characteristics.
func (t *Trace) Measure() Stats {
	var s Stats
	pages := make(map[uint64]struct{})
	for _, w := range t.Warps {
		for _, in := range w {
			s.Instructions++
			switch in.Kind {
			case Load:
				s.MemOps++
				s.Loads++
				pages[in.Addr/uint64(t.PageBytes)] = struct{}{}
			case Store:
				s.MemOps++
				s.Stores++
				pages[in.Addr/uint64(t.PageBytes)] = struct{}{}
			}
		}
	}
	s.UniquePages = len(pages)
	if s.Instructions > 0 {
		s.APKI = float64(s.MemOps) / float64(s.Instructions) * 1000
	}
	if s.MemOps > 0 {
		s.ReadRatio = float64(s.Loads) / float64(s.MemOps)
	}
	return s
}

// GeneratePhased builds a trace whose hot set rotates through `phases`
// distinct regions over the run — the phase-changing behaviour that keeps
// planar migration active in steady state (iterative graph algorithms
// change their frontier every superstep). phases <= 1 degenerates to
// Generate.
func GeneratePhased(w config.Workload, c *config.Config, phases int) *Trace {
	if phases <= 1 {
		return Generate(w, c)
	}
	base := Generate(w, c)
	nPages := int(base.Footprint) / base.PageBytes
	if nPages < phases {
		return base
	}
	// Rotate each warp's pages by footprint/phases at each phase boundary:
	// the popularity distribution is preserved but the hot identities move.
	shift := nPages / phases
	for _, wt := range base.Warps {
		per := len(wt) / phases
		if per == 0 {
			continue
		}
		for i, in := range wt {
			if in.Kind == Compute {
				continue
			}
			phase := i / per
			if phase >= phases {
				phase = phases - 1
			}
			page := int(in.Addr)/base.PageBytes + phase*shift
			page %= nPages
			off := int(in.Addr) % base.PageBytes
			wt[i].Addr = uint64(page*base.PageBytes + off)
		}
	}
	return base
}

// Generate builds the synthetic trace for workload w under configuration c.
//
// Calibration strategy:
//   - memory-instruction probability = APKI/1000 (Table II is measured in
//     accesses per kilo-instruction);
//   - each memory op is a Load with probability ReadRatio;
//   - pages are drawn from a Zipf distribution with the workload's HotSkew,
//     over a footprint of FootprintScale x DRAM capacity — so every
//     heterogeneous workload oversubscribes DRAM and triggers migration;
//   - dense kernels (Rodinia/Polybench) emit sequential runs of lines within
//     a page (spatial locality -> cache hits); graph workloads emit short
//     runs (pointer chasing -> cache misses), which is what produces their
//     high effective APKI at the memory controller.
func Generate(w config.Workload, c *config.Config) *Trace {
	nWarps := c.GPU.SMs * c.GPU.WarpsPerSM
	footprint := int64(w.FootprintScale * config.FootprintUnit)
	if footprint < int64(c.Memory.PageBytes) {
		footprint = int64(c.Memory.PageBytes)
	}
	pageBytes := c.Memory.PageBytes
	nPages := int(footprint / int64(pageBytes))
	if nPages < 1 {
		nPages = 1
	}
	linesPerPage := pageBytes / c.GPU.LineBytes

	seqRun := 8 // dense kernels stream through pages
	if w.Suite == "GraphBIG" {
		seqRun = 2 // pointer chasing
	}

	t := &Trace{
		Name:      w.Name,
		Warps:     make([]WarpTrace, nWarps),
		Footprint: footprint,
		PageBytes: pageBytes,
	}

	// Popularity rank and page number must be de-correlated: hot data is
	// scattered across the address space, not packed at its start. A shared
	// deterministic permutation maps Zipf ranks to page numbers; without it
	// consecutive hot pages would collide in the same planar migration
	// group and fight over its single DRAM slot.
	perm := make([]int32, nPages)
	for i := range perm {
		perm[i] = int32(i)
	}
	prng := sim.NewRng(c.Seed ^ hashName(w.Name) ^ 0xBADC0FFEE)
	for i := nPages - 1; i > 0; i-- {
		j := prng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}

	memProb := float64(w.APKI) / 1000
	if memProb > 0.95 {
		memProb = 0.95
	}

	// The Zipf CDF depends only on (skew, nPages): compute it once and share
	// it across warps. Per-warp NewZipf recomputed the math.Pow-heavy CDF
	// nWarps times and dominated whole-cell profiles.
	cdf := sim.ZipfCDF(w.HotSkew, nPages)

	for wi := 0; wi < nWarps; wi++ {
		rng := sim.NewRng(c.Seed ^ uint64(wi)*0x9E3779B97F4A7C15 ^ hashName(w.Name))
		zipf := sim.NewZipfCDF(rng, cdf)
		tr := make(WarpTrace, 0, c.MaxInstructions)

		curPage := int(perm[zipf.Next()])
		curLine := rng.Intn(linesPerPage)
		run := 0
		for len(tr) < c.MaxInstructions {
			if rng.Float64() >= memProb {
				tr = append(tr, Instr{Kind: Compute})
				continue
			}
			// Memory op: continue the sequential run or pick a new page.
			if run >= seqRun || curLine >= linesPerPage {
				curPage = int(perm[zipf.Next()])
				curLine = rng.Intn(linesPerPage)
				run = 0
			}
			addr := uint64(curPage)*uint64(pageBytes) + uint64(curLine)*uint64(c.GPU.LineBytes)
			curLine++
			run++
			k := Store
			if rng.Float64() < w.ReadRatio {
				k = Load
			}
			tr = append(tr, Instr{Kind: k, Addr: addr})
		}
		t.Warps[wi] = tr
	}
	return t
}

// hashName folds a workload name into the RNG seed so two workloads with the
// same config still get distinct streams.
func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
