// Root kernel benchmarks: the steady-state schedule->fire loop of the
// discrete-event engine, plus cold- and warm-cell end-to-end runs.
// scripts/bench.sh records them into BENCH_<n>.json and CI runs a short
// -benchtime=100x smoke pass so they cannot bit-rot.
package main

import (
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// benchChurn keeps the event population constant: every fired event
// schedules its successor — the simulator's steady state.
type benchChurn struct{ eng *sim.Engine }

func (c *benchChurn) Handle(arg uint64) {
	c.eng.ScheduleID(c.eng.Now()+sim.Time(1+arg%97), c, arg+1)
}

// BenchmarkKernelScheduleID measures the event loop's hot path. Expected
// steady state: 0 allocs/op.
func BenchmarkKernelScheduleID(b *testing.B) {
	eng := sim.NewEngine()
	h := &benchChurn{eng: eng}
	const population = 128
	for i := 0; i < population; i++ {
		eng.ScheduleID(sim.Time(i), h, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// BenchmarkKernelColdCell is one full cold simulation — fresh system, fresh
// trace (the registry is bypassed via Generate) — the unit cost every sweep
// pays per uncached cell.
func BenchmarkKernelColdCell(b *testing.B) {
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 2000
	w, ok := config.WorkloadByName("bfsdata")
	if !ok {
		b.Fatal("bfsdata missing")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := trace.Generate(w, &cfg)
		sys, err := core.NewSystem(nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sys.RunTrace(tr)
	}
}

// BenchmarkKernelWarmCell is the same cell as a warm sweep cell runs it:
// the trace registry is warm and one RunState is reused across iterations,
// so the platform is rebuilt into recycled device arrays — the
// steady-state unit cost of a large sweep. (The fresh single-cell path is
// BenchmarkSingleRun/Ohm-BW/planar.)
func BenchmarkKernelWarmCell(b *testing.B) {
	cfg := config.Default(config.OhmBW, config.Planar)
	cfg.MaxInstructions = 2000
	w, ok := config.WorkloadByName("bfsdata")
	if !ok {
		b.Fatal("bfsdata missing")
	}
	st := core.AcquireRunState()
	defer core.ReleaseRunState(st)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Run(st, cfg, w); err != nil {
			b.Fatal(err)
		}
	}
}
