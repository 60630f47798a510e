package ssd

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

func TestStageLatencyFloor(t *testing.T) {
	d := New(Default(), nil)
	done := d.Stage(0, 4096, false)
	cfg := Default()
	if done < cfg.ReadLatency+cfg.DMASetup {
		t.Fatalf("stage done %s, below latency floor", done)
	}
}

func TestWriteSlowerThanRead(t *testing.T) {
	cfg := Default()
	r := New(cfg, nil).Stage(0, 1<<20, false)
	w := New(cfg, nil).Stage(0, 1<<20, true)
	if w <= r {
		t.Fatalf("write (%s) should be slower than read (%s)", w, r)
	}
}

func TestBandwidthDominatesLargeTransfers(t *testing.T) {
	cfg := Default()
	d := New(cfg, nil)
	n := int64(64 << 20) // 64 MiB
	done := d.Stage(0, n, false)
	flashTime := sim.Time(float64(n) / cfg.BandwidthBps * 1e12)
	if done < flashTime {
		t.Fatalf("64MiB staged in %s, faster than flash bandwidth alone (%s)", done, flashTime)
	}
}

func TestPipelineSerializesOnFlash(t *testing.T) {
	d := New(Default(), nil)
	d1 := d.Stage(0, 1<<20, false)
	d2 := d.Stage(0, 1<<20, false)
	if d2 <= d1 {
		t.Fatal("second stage must queue behind the first on the flash")
	}
}

func TestAccounting(t *testing.T) {
	col := stats.NewCollector()
	d := New(Default(), col)
	d.Stage(0, 1000, false)
	d.Stage(0, 3000, true)
	if d.FlashBusy() <= 0 || d.DMABusy() <= 0 {
		t.Fatal("busy accounting missing")
	}
	col.Flush()
	if got := col.Extra[stats.ExtraSSDStorage]; got != float64(d.FlashBusy()) {
		t.Fatalf("storage extra = %v, flash busy %v", got, d.FlashBusy())
	}
	if got := col.Extra[stats.ExtraSSDDMA]; got != float64(d.DMABusy()) {
		t.Fatalf("dma extra = %v, DMA busy %v", got, d.DMABusy())
	}
	// Bytes, wait and energy belong to the host side (hmem's Origin
	// path); the device must not count them a second time.
	if col.HostBytes != 0 || col.HostTime != 0 || len(col.EnergyPJ) != 0 {
		t.Fatalf("device accounted host-side metrics: bytes %d, time %v, energy %v", col.HostBytes, col.HostTime, col.EnergyPJ)
	}
}
