package core

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/energy"
	"repro/internal/gpu"
	"repro/internal/hmem"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestInRunCountersMatchPostRunReaders: the wear, MSHR-merge, VC-borrow
// and SSD-busy Extra keys the components record during a run must equal
// what the components' own counters say after it (the readers the
// experiment drivers used before the keys existed), on a small cell each.
// Every cell runs both fresh and through a recycled RunState.
func TestInRunCountersMatchPostRunReaders(t *testing.T) {
	bw := func(mut func(*config.Config)) config.Config {
		c := config.Default(config.OhmBW, config.Planar)
		c.MaxInstructions = 1500
		mut(&c)
		return c
	}
	xpointWear := func(sys *System) map[string]float64 {
		var max, total uint64
		var lines int
		for mc := 0; mc < sys.Cfg.GPU.MemCtrls; mc++ {
			ws := sys.Mem.XPointAt(mc).Wear()
			if ws.Max > max {
				max = ws.Max
			}
			total += ws.Total
			lines += ws.Lines
		}
		return map[string]float64{
			stats.ExtraWearMax:   float64(max),
			stats.ExtraWearTotal: float64(total),
			stats.ExtraWearLines: float64(lines),
		}
	}
	cases := []struct {
		name string
		cfg  config.Config
		ref  func(*System) map[string]float64
	}{
		{"start-gap", bw(func(c *config.Config) { c.XPoint.StartGapK = 10 }), xpointWear},
		{"mshr", bw(func(c *config.Config) { c.GPU.MSHREntries = 64 }), func(sys *System) map[string]float64 {
			return map[string]float64{stats.ExtraMSHRMerges: float64(sys.GPU.MSHRMerges)}
		}},
		{"dynamic-division", bw(func(c *config.Config) { c.Optical.DynamicDivision = true }), func(sys *System) map[string]float64 {
			return map[string]float64{stats.ExtraVCBorrows: float64(sys.Mem.Opt.Borrows)}
		}},
	}
	st := AcquireRunState()
	defer ReleaseRunState(st)
	for _, tc := range cases {
		for _, pooled := range []*RunState{nil, st} {
			sys, err := NewSystem(pooled, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep := sys.RunTrace(trace.Cached(mustWorkload(t, "lud"), &sys.Cfg))
			for k, want := range tc.ref(sys) {
				if want == 0 {
					t.Fatalf("%s: reference %s is 0; the cell does not exercise it", tc.name, k)
				}
				if got := rep.Extra[k]; got != want {
					t.Errorf("%s (pooled=%v): Extra[%s] = %v, post-run reader says %v", tc.name, pooled != nil, k, got, want)
				}
			}
		}
	}
}

// TestSSDHostLinkMatchesDevice: an Origin cell on the ssd host link must
// report the flash and DMA occupancy of the same ssd device handed to the
// memory system explicitly, and otherwise the identical report.
func TestSSDHostLinkMatchesDevice(t *testing.T) {
	cfg := config.Default(config.Origin, config.Planar)
	cfg.MaxInstructions = 1500
	cfg.Memory.HostLink = config.HostSSD
	rep, _, err := Run(nil, cfg, mustWorkload(t, "lud"))
	if err != nil {
		t.Fatal(err)
	}

	col := stats.NewCollector()
	dev := ssd.New(ssd.Fig3(), nil)
	mem, err := hmem.New(&cfg, col, dev)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gpu.New(&cfg, col, mem)
	if err != nil {
		t.Fatal(err)
	}
	ref := (&System{Cfg: cfg, Col: col, Mem: mem, GPU: g, model: energy.Default()}).RunTrace(trace.Cached(mustWorkload(t, "lud"), &cfg))
	if dev.FlashBusy() == 0 || dev.DMABusy() == 0 {
		t.Fatal("the cell never staged through the ssd")
	}
	if got := rep.Extra[stats.ExtraSSDStorage]; got != float64(dev.FlashBusy()) {
		t.Errorf("Extra[%s] = %v, device flash busy %v", stats.ExtraSSDStorage, got, dev.FlashBusy())
	}
	if got := rep.Extra[stats.ExtraSSDDMA]; got != float64(dev.DMABusy()) {
		t.Errorf("Extra[%s] = %v, device DMA busy %v", stats.ExtraSSDDMA, got, dev.DMABusy())
	}
	delete(rep.Extra, stats.ExtraSSDStorage)
	delete(rep.Extra, stats.ExtraSSDDMA)
	if !reflect.DeepEqual(rep, ref) {
		t.Errorf("ssd host link report differs from the explicit device's:\n got %+v\nwant %+v", rep, ref)
	}
}

// TestOracleExtraKeysUnchanged: a default Oracle planar cell exercises none
// of the recorded events (no XPoint, MSHR off, static division, no spill),
// so its Extra key set is what it has always been.
func TestOracleExtraKeysUnchanged(t *testing.T) {
	rep := runFast(t, config.Oracle, config.Planar, "lud")
	var keys []string
	for k := range rep.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"dram-count", "dram-lat-sum", "l1-hit-rate", "l2-hit-rate"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("Oracle Extra keys = %v, want %v", keys, want)
	}
}

func mustWorkload(t *testing.T, name string) config.Workload {
	t.Helper()
	w, ok := config.WorkloadByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w
}
