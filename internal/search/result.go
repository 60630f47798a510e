package search

import (
	"encoding/json"
	"io"
)

// Verdict values in the decision log.
const (
	// VerdictBaseline marks candidate 0, the unperturbed base scenario.
	VerdictBaseline = "baseline"
	// VerdictFrontier marks a feasible, non-dominated, full-fidelity
	// candidate: a member of the Pareto frontier.
	VerdictFrontier = "frontier"
	// VerdictDominated marks a feasible candidate some frontier-eligible
	// candidate Pareto-dominates.
	VerdictDominated = "dominated"
	// VerdictInfeasible marks a candidate violating a constraint cap.
	VerdictInfeasible = "infeasible"
	// VerdictCulled marks a successive-halving candidate dropped at a
	// low-fidelity rung; it was never evaluated at full fidelity.
	VerdictCulled = "culled"
	// VerdictInvalid marks a sampled configuration Config.Validate or the
	// trace-page budget rejected; it was never evaluated.
	VerdictInvalid = "invalid"
	// VerdictDuplicate marks a candidate whose override set repeats an
	// earlier candidate's; it shares that candidate's evaluation.
	VerdictDuplicate = "duplicate"
)

// Decision is one line of the machine-readable decision log: what a
// candidate was, how it measured, and why it was kept or culled.
type Decision struct {
	// Candidate is the stable candidate id (0 is the baseline).
	Candidate int `json:"candidate"`
	// Generation is the batch the candidate was generated in: the rung
	// for successive halving, the generation for evolution, 0 for random
	// search and the baseline.
	Generation int `json:"generation"`
	// Parent is the elite candidate an evolutionary offspring mutated
	// from; absent for sampled candidates.
	Parent *int `json:"parent,omitempty"`
	// Overrides is the candidate's override patch over the base scenario.
	Overrides map[string]interface{} `json:"overrides"`
	// Fidelity is the per-warp instruction budget of the candidate's last
	// evaluation when it differs from the base config's (successive
	// halving evaluates early rungs cheaply).
	Fidelity int `json:"fidelity,omitempty"`
	// Metrics are the raw objective-metric values of the last (highest
	// fidelity) twin evaluation; absent for invalid candidates.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Scores are the baseline-relative per-objective scores (>1 improves
	// on the baseline).
	Scores map[string]float64 `json:"scores,omitempty"`
	// Fitness is the weighted scalar the search ranks by.
	Fitness float64 `json:"fitness"`
	// Feasible reports whether every constraint cap holds.
	Feasible bool `json:"feasible"`
	// Verdict is the outcome class; Reason is the human sentence.
	Verdict string `json:"verdict"`
	Reason  string `json:"reason"`
}

// FrontierPoint is one Pareto-optimal candidate, with its analytical
// metrics and (when confirmation ran) the DES-confirmed values.
type FrontierPoint struct {
	Candidate int                    `json:"candidate"`
	Overrides map[string]interface{} `json:"overrides"`
	Fitness   float64                `json:"fitness"`
	// Metrics are the twin's estimates the search ranked on.
	Metrics map[string]float64 `json:"metrics"`
	// Confirmed are the discrete-event simulator's values for the same
	// configuration; absent when confirmation was disabled or this point
	// fell outside confirm_top.
	Confirmed map[string]float64 `json:"confirmed,omitempty"`
	// TwinError is the twin's per-metric relative error against the
	// confirmed value: (estimate - confirmed) / confirmed.
	TwinError map[string]float64 `json:"twin_error,omitempty"`
}

// Result is an optimizer run's complete output. It is deterministic for a
// given (spec, seed): maps marshal with sorted keys and candidates are
// ordered by id, so two runs of one spec are byte-identical through
// WriteJSON.
type Result struct {
	// Spec echoes the request (defaults filled into the strategy) so the
	// result is self-describing and replayable.
	Spec Spec `json:"spec"`
	// Baseline is the base scenario's objective metrics (candidate 0).
	Baseline map[string]float64 `json:"baseline"`
	// Evaluated counts twin evaluations issued (baseline and repeated
	// halving rungs included; DES confirmations excluded).
	Evaluated int `json:"evaluated"`
	// Confirmed counts frontier points re-evaluated under the simulator.
	Confirmed int `json:"confirmed"`
	// Frontier is the Pareto frontier over feasible full-fidelity
	// candidates, ordered by fitness (best first; candidate id breaks
	// ties).
	Frontier []FrontierPoint `json:"frontier"`
	// Decisions is the complete decision log, ordered by candidate id.
	Decisions []Decision `json:"decisions"`
}

// WriteJSON writes the result in the canonical indented form every
// surface serves (ohmbatch -optimize, GET /v1/jobs/{id}/result); the
// bytes are identical wherever the same spec ran.
func WriteJSON(w io.Writer, res *Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}
