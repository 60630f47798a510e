package batch

import (
	"testing"
	"time"

	"repro/internal/config"
)

// TestEstimateCostPureSweep pins the ordinary path: the split prices both
// tiers.
func TestEstimateCostPureSweep(t *testing.T) {
	cfg := config.Default(config.OhmBase, config.Planar)
	cells := []Cell{
		{Config: cfg, Workload: "lud"},
		{Config: cfg, Workload: "sssp"},
		{Config: cfg, Workload: "lud", Exec: config.ExecAnalytical},
	}
	ce := EstimateCost(cells)
	if want := 2*DESCellCost + 1*AnalyticalCellCost; ce.Estimated != want {
		t.Fatalf("Estimated = %v, want %v", ce.Estimated, want)
	}
	if ce.Estimated < 2*DESCellCost || ce.Estimated > 2*DESCellCost+time.Millisecond {
		t.Fatalf("estimate %v not dominated by the DES cells", ce.Estimated)
	}
}
