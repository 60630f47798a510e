package batch

import (
	"context"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Executor runs a list of sweep cells to completion: reports are aligned
// positionally with cells, progress (when non-nil) observes each completed
// cell, and cancellation follows RunContext's contract. The in-process
// Runner satisfies it through LocalExecutor; internal/dist satisfies it
// with a coordinator that leases cells to remote worker processes. The
// serving layer programs against this seam, so where cells execute is a
// deployment decision, not an API one.
type Executor interface {
	RunContext(ctx context.Context, cells []Cell, progress Progress) ([]stats.Report, error)
}

// LocalExecutor is the in-process Executor: every cell runs on the wrapped
// Runner's worker pool, sharing its result cache, concurrency cap and
// single-flight table. It is the executor every deployment starts with and
// the reference the distributed path must stay byte-identical to.
type LocalExecutor struct {
	*Runner
}

var _ Executor = LocalExecutor{}

// AnalyticalExecutor forces every cell through the closed-form analytical
// twin regardless of the mode the cell was authored with: it is the "give
// me the whole sweep as estimates" switch for design-space exploration,
// where a 10^3x cheaper answer per cell is worth a ~10% error bar.
// Coerced cells keep the Runner's cache (analytical keys also hash the
// twin's model version, so estimates and simulations never collide).
type AnalyticalExecutor struct {
	*Runner
}

var _ Executor = AnalyticalExecutor{}

// RunContext coerces the cells to analytical execution and runs them on
// the wrapped Runner.
func (a AnalyticalExecutor) RunContext(ctx context.Context, cells []Cell, progress Progress) ([]stats.Report, error) {
	coerced := make([]Cell, len(cells))
	for i, c := range cells {
		c.Exec = config.ExecAnalytical
		coerced[i] = c
	}
	return a.Runner.RunContext(ctx, coerced, progress)
}

// RunCell resolves a single cell through the Runner's full machinery —
// cache lookup, single-flight, the process-wide simulation semaphore —
// and reports whether it was served without simulating here. It is the
// per-cell entry point the distributed dispatcher uses for cells it
// executes locally (analytical cells, and the coordinator's own slots
// alongside remote workers).
func (r *Runner) RunCell(ctx context.Context, c Cell) (stats.Report, bool, error) {
	rep, hit, _, err := r.runCell(ctx, c)
	return rep, hit, err
}

// RunCellTimed is RunCell plus the cell's phase split — zero when the
// cell was served from cache or joined an in-flight simulation. Remote
// workers use it to ship the breakdown back to the coordinator with the
// result.
func (r *Runner) RunCellTimed(ctx context.Context, c Cell) (stats.Report, bool, obs.Phases, error) {
	return r.runCell(ctx, c)
}
