package main

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// issueWidth is how many warp instructions one SM issues per core cycle
// (see internal/gpu): IPC can never exceed SMs x issueWidth.
const issueWidth = 1

// maxIPC is SMs x issueWidth in the units a report uses. The simulated
// cycle is a whole number of picoseconds (833 ps at 1.2 GHz) while
// Report.IPC divides by the nominal frequency, so a fully issue-bound run
// reads 16 x 833.33/833 = 16.0064 on 16 SMs.
func maxIPC(cfg *config.Config) float64 {
	period := sim.FreqToPeriod(cfg.GPU.CoreFreqHz).Seconds()
	return float64(cfg.GPU.SMs*issueWidth) / (cfg.GPU.CoreFreqHz * period) * (1 + 1e-12)
}

// checkReport enforces the invariants every simulated or estimated cell
// holds, without pinning model bytes (the golden corpus does that).
func checkReport(c batch.Cell, r stats.Report) error {
	if r.Instructions == 0 {
		return fmt.Errorf("%s: no instructions executed", c)
	}
	if r.MemRequests == 0 {
		return fmt.Errorf("%s: no memory requests reached the controller", c)
	}
	bound := maxIPC(&c.Config)
	if math.IsNaN(r.IPC) || math.IsInf(r.IPC, 0) || r.IPC <= 0 || r.IPC > bound {
		return fmt.Errorf("%s: IPC %v outside (0, %v]", c, r.IPC, bound)
	}
	for k, v := range r.EnergyPJ {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%s: energy term %s = %v", c, k, v)
		}
	}
	if c.Platform == config.Oracle || c.Platform == config.Origin {
		if r.Migrations != 0 || r.CopyBytes != 0 {
			return fmt.Errorf("%s: DRAM-only platform migrated (migrations=%d copy_bytes=%d)", c, r.Migrations, r.CopyBytes)
		}
	}
	return nil
}

// sameReport reports whether got equals the reference report of the same
// cell, naming the first field that differs.
func sameReport(got, want stats.Report) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			return fmt.Errorf("report field %s differs: %v, want %v", gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	return fmt.Errorf("reports differ")
}
