package search

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/stats"
)

// testSpec is a small two-axis optimizer spec over the default scenario.
func testSpec(algo string, seed int64) Spec {
	min, max := 1.0, 8.0
	confirm := 1
	return Spec{
		// A short instruction budget keeps the DES confirmations cheap;
		// it also exercises layering axis overrides over base overrides.
		Base: config.Spec{Overrides: map[string]interface{}{"max_instructions": 4000}},
		Axes: []Axis{
			{Path: "optical.waveguides", Min: &min, Max: &max},
			{Path: "gpu.mshr_entries", Values: []interface{}{8.0, 16.0, 32.0}},
		},
		Objectives: []Objective{
			{Metric: "throughput"},
			{Metric: "energy_pj"},
		},
		Search: Strategy{
			Algorithm:   algo,
			Seed:        seed,
			Budget:      8,
			Generations: 3,
			Mu:          2,
			Lambda:      4,
			Rungs:       3,
			Eta:         2,
			ConfirmTop:  &confirm,
		},
	}
}

func localExec() batch.LocalExecutor {
	return batch.LocalExecutor{Runner: batch.NewRunner(2, batch.NewMemCache())}
}

func runSpec(t *testing.T, spec Spec, exec batch.Executor) *Result {
	t.Helper()
	res, err := Run(context.Background(), spec, Options{Executor: exec})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// shuffledExecutor evaluates cells in a scrambled order but returns
// reports positionally, simulating distributed workers completing in
// arbitrary order. A deterministic optimizer must be invariant to it.
type shuffledExecutor struct {
	inner batch.Executor
	rng   *rand.Rand
}

func (e shuffledExecutor) RunContext(ctx context.Context, cells []batch.Cell, p batch.Progress) ([]stats.Report, error) {
	perm := e.rng.Perm(len(cells))
	shuffled := make([]batch.Cell, len(cells))
	for i, j := range perm {
		shuffled[j] = cells[i]
	}
	reps, err := e.inner.RunContext(ctx, shuffled, p)
	if err != nil {
		return nil, err
	}
	out := make([]stats.Report, len(cells))
	for i, j := range perm {
		out[i] = reps[j]
	}
	return out, nil
}

// TestDeterminismByteIdentical pins the core reproducibility contract:
// the same (spec, seed) yields byte-identical result documents across
// fresh runner states and across shuffled worker completion order, for
// every algorithm.
func TestDeterminismByteIdentical(t *testing.T) {
	for _, algo := range []string{AlgoRandom, AlgoHalving, AlgoEvolution} {
		t.Run(algo, func(t *testing.T) {
			spec := testSpec(algo, 42)
			want := resultBytes(t, runSpec(t, spec, localExec()))
			again := resultBytes(t, runSpec(t, spec, localExec()))
			if !bytes.Equal(want, again) {
				t.Fatalf("same spec+seed produced different result bytes")
			}
			shuffled := resultBytes(t, runSpec(t, spec, shuffledExecutor{inner: localExec(), rng: rand.New(rand.NewSource(7))}))
			if !bytes.Equal(want, shuffled) {
				t.Fatalf("shuffled completion order changed the result bytes")
			}
			// A different seed must explore a different trajectory.
			other := resultBytes(t, runSpec(t, testSpec(algo, 43), localExec()))
			if bytes.Equal(want, other) {
				t.Fatalf("different seed reproduced the identical result")
			}
		})
	}
}

// TestResultShape checks the decision log and frontier invariants on a
// random-search run.
func TestResultShape(t *testing.T) {
	spec := testSpec(AlgoRandom, 1)
	res := runSpec(t, spec, localExec())

	if res.Decisions[0].Verdict != VerdictBaseline {
		t.Fatalf("decision 0 verdict = %q, want baseline", res.Decisions[0].Verdict)
	}
	if len(res.Decisions[0].Overrides) != 0 {
		t.Fatalf("baseline overrides = %v, want empty", res.Decisions[0].Overrides)
	}
	for i, d := range res.Decisions {
		if d.Candidate != i {
			t.Fatalf("decision %d carries candidate id %d", i, d.Candidate)
		}
		if d.Verdict == "" || d.Reason == "" {
			t.Fatalf("candidate %d: empty verdict (%q) or reason (%q)", i, d.Verdict, d.Reason)
		}
		for _, ax := range spec.Axes {
			if d.Candidate > 0 {
				if _, ok := d.Overrides[ax.Path]; !ok {
					t.Fatalf("candidate %d overrides missing axis %s", i, ax.Path)
				}
			}
		}
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier on an unconstrained search")
	}
	if res.Confirmed != 1 {
		t.Fatalf("Confirmed = %d, want 1 (confirm_top)", res.Confirmed)
	}
	top := res.Frontier[0]
	if len(top.Confirmed) == 0 || len(top.TwinError) == 0 {
		t.Fatal("top frontier point missing DES confirmation")
	}
	for i := 1; i < len(res.Frontier); i++ {
		if res.Frontier[i].Fitness > res.Frontier[i-1].Fitness {
			t.Fatal("frontier not ordered by fitness descending")
		}
	}
	if res.Evaluated == 0 || res.Evaluated > spec.PlannedEvaluations() {
		t.Fatalf("Evaluated = %d outside (0, planned=%d]", res.Evaluated, spec.PlannedEvaluations())
	}
}

// TestHalvingCullsAtLowFidelity checks successive halving both culls
// candidates at reduced instruction budgets and evaluates the survivors
// at full fidelity.
func TestHalvingCullsAtLowFidelity(t *testing.T) {
	spec := testSpec(AlgoHalving, 5)
	res := runSpec(t, spec, localExec())

	culled, full := 0, 0
	for _, d := range res.Decisions {
		switch d.Verdict {
		case VerdictCulled:
			culled++
			if d.Fidelity == 0 {
				t.Fatalf("culled candidate %d evaluated at full fidelity", d.Candidate)
			}
		case VerdictFrontier, VerdictDominated, VerdictInfeasible:
			full++
			if d.Fidelity != 0 {
				t.Fatalf("surviving candidate %d stuck at fidelity %d", d.Candidate, d.Fidelity)
			}
		}
	}
	if culled == 0 {
		t.Fatal("no candidates culled at low-fidelity rungs")
	}
	if full == 0 {
		t.Fatal("no candidates reached the full-fidelity rung")
	}
}

// TestEvolutionRecordsParents checks offspring carry their elite parent
// in the decision log.
func TestEvolutionRecordsParents(t *testing.T) {
	res := runSpec(t, testSpec(AlgoEvolution, 9), localExec())
	withParent := 0
	for _, d := range res.Decisions {
		if d.Parent != nil {
			withParent++
			if *d.Parent >= d.Candidate {
				t.Fatalf("candidate %d claims later parent %d", d.Candidate, *d.Parent)
			}
			if d.Generation == 0 {
				t.Fatalf("generation-0 candidate %d has a parent", d.Candidate)
			}
		}
	}
	if withParent == 0 {
		t.Fatal("no evolutionary offspring recorded a parent")
	}
}

// TestAllInfeasiblePopulation: an unsatisfiable cap empties the frontier
// but the decision log still explains every candidate.
func TestAllInfeasiblePopulation(t *testing.T) {
	spec := testSpec(AlgoRandom, 3)
	impossible := 1e12
	spec.Objectives[0].Cap = &impossible // ipc >= 1e12 is unsatisfiable
	res := runSpec(t, spec, localExec())

	if len(res.Frontier) != 0 {
		t.Fatalf("frontier has %d points with an unsatisfiable cap", len(res.Frontier))
	}
	if res.Confirmed != 0 {
		t.Fatalf("Confirmed = %d with an empty frontier", res.Confirmed)
	}
	for _, d := range res.Decisions {
		if d.Feasible {
			t.Fatalf("candidate %d feasible under an unsatisfiable cap", d.Candidate)
		}
		if d.Candidate > 0 && d.Verdict == VerdictInfeasible && !strings.Contains(d.Reason, "cap") {
			t.Fatalf("candidate %d infeasible reason does not name the cap: %q", d.Candidate, d.Reason)
		}
	}
}

// TestConstraintExactlyAtCapIsFeasible: a candidate measuring exactly at
// its cap is feasible, per the documented closed-constraint semantics.
func TestConstraintExactlyAtCapIsFeasible(t *testing.T) {
	// Learn the baseline's exact metrics first, then re-run with caps set
	// exactly at those values: the baseline must stay feasible.
	spec := testSpec(AlgoRandom, 3)
	spec.Search.Budget = 2
	probe := runSpec(t, spec, localExec())
	ipc := probe.Baseline["ipc"]
	energy := probe.Baseline["energy_pj"]

	spec.Objectives[0].Cap = &ipc    // max goal: ipc >= cap
	spec.Objectives[1].Cap = &energy // min goal: energy <= cap
	res := runSpec(t, spec, localExec())
	if !res.Decisions[0].Feasible {
		t.Fatal("baseline exactly at both caps judged infeasible")
	}
}

// TestSingleAxisSearch: a one-dimensional search runs end to end.
func TestSingleAxisSearch(t *testing.T) {
	noConfirm := 0
	spec := Spec{
		Base:       config.Spec{},
		Axes:       []Axis{{Path: "gpu.mshr_entries", Values: []interface{}{8.0, 32.0}}},
		Objectives: []Objective{{Metric: "p99_latency_ns"}},
		Search:     Strategy{Algorithm: AlgoRandom, Budget: 4, Seed: 2, ConfirmTop: &noConfirm},
	}
	res := runSpec(t, spec, localExec())
	if len(res.Frontier) == 0 {
		t.Fatal("single-axis search produced no frontier")
	}
	if res.Confirmed != 0 {
		t.Fatalf("Confirmed = %d with confirm_top 0", res.Confirmed)
	}
	// Only two distinct configurations exist; extra samples must be
	// marked duplicates, not re-evaluated.
	dups := 0
	for _, d := range res.Decisions {
		if d.Verdict == VerdictDuplicate {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("budget 4 over a 2-point axis recorded no duplicates")
	}
}

// TestCandidateOverTraceBudgetIsInvalid: a candidate whose axis value
// pushes the workload's trace past config.MaxTracePages is invalid even
// though the base scenario is within budget. Twin-only (confirm_top 0), so
// nothing would build the 33M-page trace if the check were missing.
func TestCandidateOverTraceBudgetIsInvalid(t *testing.T) {
	noConfirm := 0
	spec := Spec{
		Base: config.Spec{
			Preset: "ohm-bw",
			Mode:   "planar",
			Workload: &config.WorkloadSpec{Inline: &config.Workload{
				Name: "big", APKI: 100, ReadRatio: 0.9, FootprintScale: 1024, HotSkew: 1,
			}},
		},
		Axes:       []Axis{{Path: "memory.page_bytes", Values: []interface{}{256.0}}},
		Objectives: []Objective{{Metric: "throughput"}},
		Search:     Strategy{Algorithm: AlgoRandom, Budget: 1, Seed: 1, ConfirmTop: &noConfirm},
	}
	res := runSpec(t, spec, localExec())
	if len(res.Decisions) != 2 {
		t.Fatalf("decisions = %d, want baseline + 1 candidate", len(res.Decisions))
	}
	d := res.Decisions[1]
	if d.Verdict != VerdictInvalid || !strings.Contains(d.Reason, "trace pages") {
		t.Fatalf("candidate verdict %q (%s), want %q naming the trace-page budget", d.Verdict, d.Reason, VerdictInvalid)
	}
}

// TestCancellationPropagates: a cancelled context aborts the run with a
// context error.
func TestCancellationPropagates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, testSpec(AlgoRandom, 1), Options{Executor: localExec()})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// TestOnPhaseProgress: phase snapshots arrive in order with monotonic
// evaluation counts.
func TestOnPhaseProgress(t *testing.T) {
	var phases []Progress
	spec := testSpec(AlgoEvolution, 4)
	_, err := Run(context.Background(), spec, Options{
		Executor: localExec(),
		OnPhase:  func(p Progress) { phases = append(phases, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) < 3 || phases[0].Phase != "baseline" || phases[len(phases)-1].Phase != "confirm" {
		t.Fatalf("phase sequence %v", phases)
	}
	seenSearch := 0
	last := -1
	for _, p := range phases {
		if p.Evaluated < last {
			t.Fatalf("evaluated count went backwards: %v", phases)
		}
		last = p.Evaluated
		if p.Phase == "search" {
			seenSearch++
			if p.Generation != seenSearch || p.Generations != spec.Search.Generations {
				t.Fatalf("generation counters off: %+v", p)
			}
			if p.Planned != spec.PlannedEvaluations() {
				t.Fatalf("planned = %d, want %d", p.Planned, spec.PlannedEvaluations())
			}
		}
	}
	if seenSearch != spec.Search.Generations {
		t.Fatalf("saw %d search phases, want %d", seenSearch, spec.Search.Generations)
	}
}

// TestValidateRejects covers the validation matrix.
func TestValidateRejects(t *testing.T) {
	min, max := 1.0, 8.0
	neg := -1
	base := func() Spec { return testSpec(AlgoRandom, 0) }
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown algorithm", func(s *Spec) { s.Search.Algorithm = "anneal" }, "unknown algorithm"},
		{"no axes", func(s *Spec) { s.Axes = nil }, "no axes"},
		{"unknown path", func(s *Spec) { s.Axes[0].Path = "optical.nonesuch" }, "unknown override path"},
		{"duplicate path", func(s *Spec) { s.Axes[1] = s.Axes[0] }, "declared twice"},
		{"values and range", func(s *Spec) {
			s.Axes[0].Values = []interface{}{1.0}
		}, "not both"},
		{"no domain", func(s *Spec) { s.Axes[0] = Axis{Path: "optical.waveguides"} }, "values list or a min/max range"},
		{"min over max", func(s *Spec) { s.Axes[0].Min, s.Axes[0].Max = &max, &min }, "min"},
		{"bool range", func(s *Spec) {
			s.Axes[0] = Axis{Path: "dram.refresh_enable", Min: &min, Max: &max}
		}, "bool"},
		{"fractional int step", func(s *Spec) { s.Axes[0].Step = 0.5 }, "integer"},
		{"bad categorical value", func(s *Spec) {
			s.Axes[1].Values = []interface{}{"not-a-number"}
		}, "value"},
		{"no objectives", func(s *Spec) { s.Objectives = nil }, "no objectives"},
		{"unknown metric", func(s *Spec) { s.Objectives[0].Metric = "qps" }, "unknown"},
		{"duplicate metric", func(s *Spec) { s.Objectives[1].Metric = "ipc" }, "declared twice"},
		{"bad goal", func(s *Spec) { s.Objectives[0].Goal = "maximize" }, "goal"},
		{"negative weight", func(s *Spec) { s.Objectives[0].Weight = -1 }, "negative weight"},
		{"negative confirm_top", func(s *Spec) { s.Search.ConfirmTop = &neg }, "confirm_top"},
		{"over evaluation cap", func(s *Spec) { s.Search.Budget = MaxEvaluations + 1 }, "cap"},
		{"halving fidelity conflict", func(s *Spec) {
			s.Search.Algorithm = AlgoHalving
			s.Axes[0] = Axis{Path: "max_instructions", Min: &min, Max: &max}
		}, "fidelity"},
		{"bad base", func(s *Spec) { s.Base.Preset = "nonesuch" }, "base scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestPlannedEvaluations pins the admission-charge arithmetic.
func TestPlannedEvaluations(t *testing.T) {
	cases := []struct {
		st   Strategy
		want int
	}{
		{Strategy{Algorithm: AlgoRandom, Budget: 8}, 9},
		{Strategy{Algorithm: AlgoRandom}, 33},
		{Strategy{Algorithm: AlgoEvolution, Generations: 3, Lambda: 4}, 13},
		// halving: rungs + pool sizes 8+4+2, baseline per rung
		{Strategy{Algorithm: AlgoHalving, Budget: 8, Rungs: 3, Eta: 2}, 17},
	}
	for _, tc := range cases {
		got := Spec{Search: tc.st}.PlannedEvaluations()
		if got != tc.want {
			t.Errorf("PlannedEvaluations(%+v) = %d, want %d", tc.st, got, tc.want)
		}
	}
}

// TestExecutorRequired: Run without an executor fails fast.
func TestExecutorRequired(t *testing.T) {
	if _, err := Run(context.Background(), testSpec(AlgoRandom, 0), Options{}); err == nil {
		t.Fatal("Run accepted nil executor")
	}
}
