package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef is one entry of the metric dictionary (METRICS.md). The two
// catalogues below are the names BENCHMARK.json lists; a run prints exactly
// the end-to-end set untraced and exactly the per-layer set traced.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator sees. An "op" is one sweep cell
// on the des-* workloads and one HTTP job on serve-mixed, so every workload
// reports every name. The bounds are wide because on the machine they were
// set on, other tenants' load spread a metric's quartiles over ten runs by
// up to 17% of its median (METRICS.md).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_tail", "ms", "lower", 0.25},
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.15},
}

// perLayer is measured by the traced run at the seams each layer already
// exposes. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"trace.gen_ms", "ms", "lower", 0},
	{"core.build_us", "us", "lower", 0},
	{"core.fresh_build_ms", "ms", "lower", 0},
	{"gpu.self_ms", "ms", "lower", 0},
	{"gpu.l1_hit_rate", "ratio", "higher", 0},
	{"gpu.l2_hit_rate", "ratio", "higher", 0},
	{"noc.xbar_util", "ratio", "lower", 0},
	{"gpu.mem_requests", "count", "lower", 0},
	{"gpu.sim_ipc_geomean", "instr/cycle", "higher", 0},
	{"hmem.read_ns", "ns", "lower", 0},
	{"hmem.write_ns", "ns", "lower", 0},
	{"hmem.access_calls", "count", "lower", 0},
	{"hmem.share", "ratio", "lower", 0},
	{"hmem.migrations", "count", "lower", 0},
	{"hmem.copy_fraction", "ratio", "lower", 0},
	{"dram.ops", "count", "lower", 0},
	{"xpoint.reads", "count", "lower", 0},
	{"xpoint.writes", "count", "lower", 0},
	{"optical.data_busy_frac", "ratio", "lower", 0},
	{"optical.mem_route_busy_frac", "ratio", "lower", 0},
	{"elec.busy_frac", "ratio", "lower", 0},
	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.result_ms_p50", "ms", "lower", 0},
	{"serve.wait_ms_p50", "ms", "lower", 0},
	{"batch.exec_ms_p50.hit", "ms", "lower", 0},
	{"batch.exec_ms_p50.analytical", "ms", "lower", 0},
	{"batch.exec_ms_p50.des", "ms", "lower", 0},
	{"batch.exec_ms_p50.optimize", "ms", "lower", 0},
	{"cache.get_us_p50", "us", "lower", 0},
	{"cache.put_us_p50", "us", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"twin.estimate_us", "us", "lower", 0},
	{"bench.trace_overhead", "ratio", "lower", 0},
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a name and unit fit the result format.
func validMetric(name, unit string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q must match %s", name, metricName)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q must match %s", name, unit, metricUnit)
	}
	return nil
}

// minBeyond is how many samples must lie above a reported percentile: a
// tail value resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// tailPercentiles are the candidates highestTail chooses from.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// highestTail returns the highest candidate percentile with at least
// minBeyond of n samples beyond it (p99 needs 1000 samples, p90 100), or
// false when n is too small even for the median. A run prints it beside
// its fixed tail percentile.
func highestTail(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if tailAllowed(n, p) {
			return p, true
		}
	}
	return 0, false
}

func tailAllowed(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// percentile returns the nearest-rank p-th percentile of samples, refusing
// one with fewer than minBeyond samples beyond it. samples is not modified.
func percentile(samples []float64, p float64) (float64, error) {
	if !tailAllowed(len(samples), p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; have %d samples in all", p, minBeyond, len(samples))
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// median is the 50th percentile without the tail rule: the per-layer
// medians summarize small sets (one value per kind of job or distinct
// trace). It returns 0 for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run returns: its tallies, every metric it
// measured, and detail lines printed before the result.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	detail            map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, detail: map[string]any{}}
}

// fail records one failed operation and keeps the first few reasons.
func (o *outcome) fail(err error) {
	o.failed++
	reasons, _ := o.detail["failures"].([]string)
	if len(reasons) < 5 {
		o.detail["failures"] = append(reasons, err.Error())
	}
}

// build renders the result for one catalogue. A metric of a layer the
// workload does not exercise (owns is false) reads 0; a missing metric the
// workload owns, or a non-finite value, is an error, so a broken workload
// cannot print a plausible-looking line.
func (o *outcome) build(defs []metricDef, owns func(name string) bool) (result, error) {
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		if err := validMetric(d.Name, d.Unit); err != nil {
			return res, err
		}
		v, ok := o.values[d.Name]
		if !ok && owns(d.Name) {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}
