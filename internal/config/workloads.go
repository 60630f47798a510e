package config

import "fmt"

// Workload describes one evaluated application per Table II. APKI is memory
// accesses per kilo-instruction observed at the memory controller; ReadRatio
// is the read fraction of those accesses. FootprintScale and HotSkew shape
// the synthetic trace: footprint relative to DRAM capacity (so >1 forces
// XPoint/host residency) and the Zipf skew of the address stream (higher =
// hotter pages = more migration opportunities). The JSON form is the wire
// shape of inline custom workloads in scenario specs.
type Workload struct {
	Name           string  `json:"name"`
	APKI           int     `json:"apki"`
	ReadRatio      float64 `json:"read_ratio"`
	Suite          string  `json:"suite,omitempty"`         // Rodinia / Polybench / GraphBIG per Table II
	FootprintScale float64 `json:"footprint_scale"`         // working-set bytes / DRAM capacity
	HotSkew        float64 `json:"hot_skew"`                // Zipf skew of the page-level address stream
	ComputeBound   bool    `json:"compute_bound,omitempty"` // compute- vs memory-intensive classification
	// Phases rotates the hot set that many times over the run (0 or 1:
	// static, as in Table II): iterative algorithms move theirs every
	// superstep, which keeps migration busy in steady state.
	Phases int `json:"phases,omitempty"`
}

// MaxFootprintScale bounds inline workload footprints (units of
// FootprintUnit, i.e. 8 GiB at the cap). Trace generation allocates
// per-page state, so an unbounded scale would let a small untrusted spec
// demand a terabyte-class allocation inside the ohmserve daemon.
const MaxFootprintScale = 1024

// MaxPhases bounds Workload.Phases. A phase needs at least one page and
// one instruction of every warp to move the hot set, so more phases than
// this only repeat the rotation at ever finer grain.
const MaxPhases = 1024

// Validate checks an inline workload definition; spec resolution rejects
// definitions the trace generator cannot calibrate to (or cannot afford).
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: name is required")
	}
	if w.APKI <= 0 {
		return fmt.Errorf("workload %q: apki must be positive, got %d", w.Name, w.APKI)
	}
	if w.ReadRatio < 0 || w.ReadRatio > 1 {
		return fmt.Errorf("workload %q: read_ratio must be in [0,1], got %g", w.Name, w.ReadRatio)
	}
	if w.FootprintScale <= 0 || w.FootprintScale > MaxFootprintScale {
		return fmt.Errorf("workload %q: footprint_scale must be in (0,%d], got %g",
			w.Name, MaxFootprintScale, w.FootprintScale)
	}
	if w.HotSkew < 0 {
		return fmt.Errorf("workload %q: hot_skew must be non-negative, got %g", w.Name, w.HotSkew)
	}
	if w.Phases < 0 || w.Phases > MaxPhases {
		return fmt.Errorf("workload %q: phases must be in [0,%d], got %d", w.Name, MaxPhases, w.Phases)
	}
	return nil
}

// tableII reproduces Table II's ten applications. Footprint scales and
// skews are our calibration knobs (the paper gives only APKI and read
// ratio): graph workloads get large footprints and strong skew, dense
// kernels get moderate footprints and mild skew.
var tableII = []Workload{
	{Name: "backp", APKI: 30, ReadRatio: 0.53, Suite: "Rodinia", FootprintScale: 2.0, HotSkew: 0.6, ComputeBound: true},
	{Name: "lud", APKI: 20, ReadRatio: 0.52, Suite: "Rodinia", FootprintScale: 1.5, HotSkew: 0.5, ComputeBound: true},
	{Name: "GRAMS", APKI: 266, ReadRatio: 0.70, Suite: "Polybench", FootprintScale: 3.0, HotSkew: 0.7},
	{Name: "FDTD", APKI: 86, ReadRatio: 0.70, Suite: "Polybench", FootprintScale: 2.5, HotSkew: 0.6},
	{Name: "betw", APKI: 193, ReadRatio: 0.99, Suite: "GraphBIG", FootprintScale: 4.0, HotSkew: 1.25},
	{Name: "bfsdata", APKI: 84, ReadRatio: 0.95, Suite: "GraphBIG", FootprintScale: 4.0, HotSkew: 1.15},
	{Name: "bfstopo", APKI: 25, ReadRatio: 0.97, Suite: "GraphBIG", FootprintScale: 3.5, HotSkew: 1.15},
	{Name: "gctopo", APKI: 93, ReadRatio: 0.99, Suite: "GraphBIG", FootprintScale: 3.5, HotSkew: 1.25},
	{Name: "pagerank", APKI: 599, ReadRatio: 0.99, Suite: "GraphBIG", FootprintScale: 5.0, HotSkew: 1.35},
	{Name: "sssp", APKI: 103, ReadRatio: 0.98, Suite: "GraphBIG", FootprintScale: 4.5, HotSkew: 1.25},
}

// Workloads returns a copy of Table II's ten applications.
func Workloads() []Workload {
	return append([]Workload(nil), tableII...)
}

// WorkloadByName looks a workload up; ok reports whether it exists. It
// scans the table in place, so the per-cell lookups allocate nothing.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range tableII {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// WorkloadNames returns the ten names in Table II order.
func WorkloadNames() []string {
	ws := Workloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}
