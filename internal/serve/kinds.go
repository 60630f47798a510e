package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/batch"
	"repro/internal/experiments"
	"repro/internal/search"
	"repro/internal/stats"
)

// prepared is everything the manager and the HTTP handlers need to know
// about a request's kind, decided once by prepare.
type prepared struct {
	kind       string
	experiment string // the registry spelling; "" for other kinds
	// units is what the request charges against tenant quota: the
	// expanded cell count for sweeps, the planned twin evaluations for
	// optimizer jobs, 0 for experiment jobs (their totals grow as the
	// driver runs).
	units  int
	dryRun func(*dryRunResponse) // fills the kind's dry-run fields
	run    runFunc
}

// runFunc executes a job through m's executor, reporting every cell to
// progress, and returns the renderer of its result.
type runFunc func(ctx context.Context, m *Manager, job *Job, progress batch.Progress) (renderFunc, error)

// renderFunc writes a finished job's result in format ("json" or "csv").
// It returns errNotAcceptable, having written nothing, for a format the
// job's kind does not offer.
type renderFunc func(w http.ResponseWriter, format string) error

var errNotAcceptable = errors.New("serve: result format not available")

// prepare validates and canonicalizes the request: the experiment id takes
// its registry spelling, a scenario becomes its one-cell sweep, and sweep
// specs are expanded and per-cell validated so a bad submission gets a 400
// here rather than a failed job later. It is the only code that looks at
// which request field is set. When the request names exactly one kind but
// fails validation, the returned value still carries that kind.
func (r Request) prepare() (prepared, error) {
	n := 0
	for _, set := range []bool{r.Experiment != "", r.Spec != nil, r.Scenario != nil, r.Optimize != nil} {
		if set {
			n++
		}
	}
	if n != 1 {
		return prepared{}, errors.New("serve: request must carry exactly one of \"experiment\", \"spec\", \"scenario\" or \"optimize\"")
	}
	switch {
	case r.Optimize != nil:
		return prepareOptimize(*r.Optimize)
	case r.Experiment != "":
		return prepareExperiment(r.Experiment, r.Params)
	case r.Scenario != nil:
		spec, err := batch.ScenarioSpec(*r.Scenario)
		if err != nil {
			return prepared{kind: "sweep"}, fmt.Errorf("serve: %w", err)
		}
		return prepareSweep(&spec)
	default:
		return prepareSweep(r.Spec)
	}
}

func prepareSweep(spec *batch.SweepSpec) (prepared, error) {
	cells, err := spec.Cells()
	if err != nil {
		return prepared{kind: "sweep"}, fmt.Errorf("serve: %w", err)
	}
	for _, c := range cells {
		if err := c.Config.Validate(); err != nil {
			return prepared{kind: "sweep"}, fmt.Errorf("serve: cell %d (%s): %w", c.Index, c, err)
		}
	}
	dryRun := func(resp *dryRunResponse) {
		cost := batch.EstimateCost(cells)
		resp.Cost = &cost
		keys := make(map[string]struct{}, len(cells))
		for _, c := range cells {
			if k, err := c.Key(); err == nil {
				keys[k] = struct{}{}
			}
		}
		resp.DistinctKeys = len(keys)
	}
	run := func(ctx context.Context, m *Manager, job *Job, progress batch.Progress) (renderFunc, error) {
		// Re-expand (microseconds) instead of keeping the cells built for
		// validation: a few hundred bytes of spec may expand to ~MaxCells
		// cells, and pinning that on every queued job would amplify small
		// submissions into resident memory. It cannot fail differently
		// than it did at validation, but the error path stays honest.
		cells, err := spec.Cells()
		if err != nil {
			return nil, err
		}
		job.mu.Lock()
		job.cellsTotal = len(cells)
		job.mu.Unlock()
		reports, err := m.executor().RunContext(ctx, cells, progress)
		if err != nil {
			return nil, err
		}
		return sweepResult(cells, reports), nil
	}
	return prepared{kind: "sweep", units: len(cells), dryRun: dryRun, run: run}, nil
}

func prepareExperiment(id string, params experiments.Params) (prepared, error) {
	// Canonicalize the id (Lookup is case-insensitive) so the job's status
	// and result document carry the registry spelling — the result must
	// stay byte-identical to `ohmfig -json <id>`.
	d, ok := experiments.Lookup(id)
	if !ok {
		return prepared{kind: "experiment", experiment: id}, fmt.Errorf("serve: unknown experiment %q", id)
	}
	dryRun := func(resp *dryRunResponse) {
		resp.Note = "experiment cells are chosen by the driver at run time; no static cost estimate exists"
	}
	run := func(ctx context.Context, m *Manager, job *Job, progress batch.Progress) (renderFunc, error) {
		o := params.Options()
		o.Engine = &experiments.Engine{Runner: m.runner, Executor: m.executor(), Ctx: ctx, Progress: progress}
		res, err := d.Run(o, params.AblWorkload())
		if err != nil {
			return nil, err
		}
		// The exact bytes `ohmfig -json <id>` prints, so served figures are
		// interchangeable with locally generated ones.
		return jsonResult(func(w io.Writer) error { return experiments.EncodeResultJSON(w, d.ID, res) }), nil
	}
	return prepared{kind: "experiment", experiment: d.ID, dryRun: dryRun, run: run}, nil
}

func prepareOptimize(spec search.Spec) (prepared, error) {
	if err := spec.Validate(); err != nil {
		return prepared{kind: "optimize"}, fmt.Errorf("serve: %w", err)
	}
	units := spec.PlannedEvaluations()
	dryRun := func(resp *dryRunResponse) {
		resp.PlannedEvaluations = units
		resp.Note = "planned_evaluations counts analytical-twin evaluations; Pareto-frontier points are additionally confirmed under the event simulator"
	}
	run := func(ctx context.Context, m *Manager, job *Job, progress batch.Progress) (renderFunc, error) {
		// The optimizer submits successive evaluation batches through the
		// shared executor exactly like an experiment driver, so the cell
		// counters accumulate through the same progress closure; OnPhase
		// additionally surfaces per-generation search progress.
		res, err := search.Run(ctx, spec, search.Options{
			Executor: m.executor(),
			Progress: progress,
			OnPhase: func(ph search.Progress) {
				job.mu.Lock()
				job.optProgress = &ph
				job.mu.Unlock()
			},
		})
		if err != nil {
			return nil, err
		}
		// The exact bytes `ohmbatch -optimize` prints for the same (spec,
		// seed), so optimizer results are byte-identical across surfaces.
		return jsonResult(func(w io.Writer) error { return search.WriteJSON(w, res) }), nil
	}
	return prepared{kind: "optimize", units: units, dryRun: dryRun, run: run}, nil
}

// sweepResult renders a sweep's rows as JSON or CSV.
func sweepResult(cells []batch.Cell, reports []stats.Report) renderFunc {
	return func(w http.ResponseWriter, format string) error {
		write, contentType := batch.WriteJSON, "application/json"
		if format == "csv" {
			write, contentType = batch.WriteCSV, "text/csv; charset=utf-8"
		} else if format != "json" {
			return errNotAcceptable
		}
		w.Header().Set("Content-Type", contentType)
		if err := write(w, cells, reports); err != nil {
			return fmt.Errorf("encode %s: %w", format, err)
		}
		return nil
	}
}

// jsonResult renders a result whose only form is JSON.
func jsonResult(encode func(io.Writer) error) renderFunc {
	return func(w http.ResponseWriter, format string) error {
		if format != "json" {
			return errNotAcceptable
		}
		w.Header().Set("Content-Type", "application/json")
		if err := encode(w); err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
		return nil
	}
}
