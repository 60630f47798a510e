// Package ssd models the external storage of the Figure 3 motivation study:
// a GPU–SSD integrated system in which working sets exceeding GPU memory
// are staged over a PCIe DMA engine from a low-latency SSD. The paper used
// a real Samsung Z-NAND testbed; we model first-order latency/bandwidth
// behaviour, which is all the execution-time breakdown depends on.
package ssd

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parametrises the storage path.
type Config struct {
	// ReadLatency is the SSD's internal access latency per command
	// (Z-NAND-class, ~20 us).
	ReadLatency sim.Time
	// WriteLatency per command.
	WriteLatency sim.Time
	// BandwidthBps is the device's streaming bandwidth.
	BandwidthBps float64
	// DMABandwidthBps is the PCIe DMA bandwidth between host/SSD and GPU.
	DMABandwidthBps float64
	// DMASetup is per-transfer DMA programming overhead.
	DMASetup sim.Time
}

// Default returns a Z-NAND + PCIe 3.0 x16 class configuration.
func Default() Config {
	return Config{
		ReadLatency:     20 * sim.Microsecond,
		WriteLatency:    30 * sim.Microsecond,
		BandwidthBps:    3.2e9,  // 3.2 GB/s streaming
		DMABandwidthBps: 12.8e9, // PCIe 3.0 x16 effective
		DMASetup:        5 * sim.Microsecond,
	}
}

// Fig3 returns the device of the Figure 3 motivation study (the
// config.HostSSD host link). Its latencies and bandwidths are scaled up
// by the footprint scale-down (~150x): compute time does not shrink with
// config.MemScale (the GPU clock is unscaled), so an unscaled SSD would
// swamp compute entirely and the breakdown would degenerate to 100%
// staging. Scaling the staging path by the same factor as the footprints
// preserves the testbed's staging:compute proportions, which is what
// Figure 3a reports.
func Fig3() Config {
	return Config{
		ReadLatency:     500 * sim.Nanosecond,
		WriteLatency:    800 * sim.Nanosecond,
		BandwidthBps:    480e9,
		DMABandwidthBps: 240e9,
		DMASetup:        200 * sim.Nanosecond,
	}
}

// Device is the SSD + DMA pipeline.
type Device struct {
	cfg            Config
	col            *stats.Collector
	hStorage, hDMA stats.ExtraHandle
	flash          *sim.Resource
	dma            *sim.Resource
}

// New builds the device. A non-nil col receives every stage's flash and
// DMA occupancy (stats.ExtraSSDStorage, stats.ExtraSSDDMA); the staged
// bytes, wait and transfer energy are the host side's to account.
func New(cfg Config, col *stats.Collector) *Device {
	d := &Device{
		cfg:   cfg,
		col:   col,
		flash: sim.NewResource("ssd-flash"),
		dma:   sim.NewResource("ssd-dma"),
	}
	if col != nil {
		d.hStorage = col.InternExtra(stats.ExtraSSDStorage)
		d.hDMA = col.InternExtra(stats.ExtraSSDDMA)
	}
	return d
}

// Stage moves n bytes between the SSD and GPU memory (direction only
// affects latency). It returns when the data is resident on the other side,
// and accounts the storage and DMA time separately, matching Figure 3a's
// "Storage" and "Data move" bars.
func (d *Device) Stage(at sim.Time, n int64, write bool) (done sim.Time) {
	lat := d.cfg.ReadLatency
	if write {
		lat = d.cfg.WriteLatency
	}
	flashDur := lat + sim.Time(float64(n)/d.cfg.BandwidthBps*1e12)
	_, flashDone := d.flash.Reserve(at, flashDur)

	dmaDur := d.cfg.DMASetup + sim.Time(float64(n)/d.cfg.DMABandwidthBps*1e12)
	_, done = d.dma.Reserve(flashDone, dmaDur)

	if d.col != nil {
		d.col.AddExtraH(d.hStorage, float64(flashDur))
		d.col.AddExtraH(d.hDMA, float64(dmaDur))
	}
	return done
}

// FlashBusy and DMABusy expose occupancy for breakdown reports.
func (d *Device) FlashBusy() sim.Time { return d.flash.Busy() }

// DMABusy returns DMA engine occupancy.
func (d *Device) DMABusy() sim.Time { return d.dma.Busy() }
