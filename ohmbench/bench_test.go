package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/config"
	"repro/internal/stats"
)

func TestHighestTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 999)
	for i := range samples {
		samples[i] = float64(len(samples) - i) // descending: percentile must sort
	}
	if _, err := percentile(samples, 99); err == nil {
		t.Fatal("p99 of 999 samples was reported")
	}
	if got, err := percentile(samples, 90); err != nil || got != 900 {
		t.Fatalf("p90 of 1..999 = %v, %v; want 900", got, err)
	}
	samples = append(samples, 1000)
	if got, err := percentile(samples, 99); err != nil || got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if samples[0] != 999 {
		t.Fatal("percentile reordered its input")
	}
}

func TestMetricNameValidation(t *testing.T) {
	for _, name := range []string{"ops_per_s", "batch.exec_ms_p50.hit", "gpu.l1_hit_rate", "9lives", "a-b"} {
		if err := validMetric(name, "ms"); err != nil {
			t.Errorf("%q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", "has space", "-lead", ".lead", "a/b", "x{y}", strings.Repeat("a", 65)} {
		if validMetric(name, "ms") == nil {
			t.Errorf("%q accepted", name)
		}
	}
	if validMetric("ok", "too long a unit!") == nil {
		t.Error("bad unit accepted")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := validMetric(d.Name, d.Unit); err != nil {
			t.Error(err)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// the binary prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := lookup(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v", names)
	}
}

// oneCell is a single short DES cell.
func oneCell(t *testing.T) []batch.Cell {
	t.Helper()
	cells, err := batch.SweepSpec{
		Platforms:       []config.Platform{config.OhmWOM},
		Modes:           []config.MemMode{config.Planar},
		Workloads:       []string{"sssp"},
		MaxInstructions: 200,
	}.Cells()
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestCorruptedReportCountsAsFailure(t *testing.T) {
	cells := oneCell(t)
	r := batch.NewRunner(1, nil)
	ref, err := r.Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(cells[0], ref[0]); err != nil {
		t.Fatalf("sound report rejected: %v", err)
	}

	// A pass whose reference was corrupted must count one failure.
	bad := append([]stats.Report(nil), ref...)
	bad[0].MemRequests++
	out := newOutcome()
	var ps passStats
	ps.runnerPass(r, cells, bad, out)
	if out.attempted != 1 || out.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 1 and 1", out.attempted, out.failed)
	}
	res, err := out.build(endToEnd, func(string) bool { return false })
	if err != nil || res.Correct {
		t.Fatalf("result with a failure: correct=%v err=%v", res.Correct, err)
	}

	corrupt := []func(*stats.Report){
		func(r *stats.Report) { r.Instructions = 0 },
		func(r *stats.Report) { r.MemRequests = 0 },
		func(r *stats.Report) { r.IPC = math.NaN() },
		func(r *stats.Report) { r.IPC = 17 },
		func(r *stats.Report) { r.EnergyPJ = map[string]float64{"dram": -1} },
		func(r *stats.Report) { r.EnergyPJ = map[string]float64{"dram": math.Inf(1)} },
	}
	for i, f := range corrupt {
		rep := ref[0]
		f(&rep)
		if checkReport(cells[0], rep) == nil {
			t.Errorf("corruption %d passed the invariants", i)
		}
	}
	oracle := cells[0]
	oracle.Platform = config.Oracle
	rep := ref[0]
	rep.Migrations = 1
	if checkReport(oracle, rep) == nil {
		t.Error("Oracle report with a migration passed")
	}
}

func TestMaxIPCIsIssueBound(t *testing.T) {
	cfg := config.Default(config.OhmBW, config.Planar)
	got := maxIPC(&cfg)
	// 16 SMs at 1.2 GHz, simulated with an 833 ps cycle.
	if want := 16 / (1.2e9 * 833e-12); math.Abs(got-want) > 1e-9 {
		t.Fatalf("maxIPC = %v, want %v", got, want)
	}
}

func TestTracedAssemblyMatchesRunner(t *testing.T) {
	var cells []batch.Cell
	for _, p := range []config.Platform{config.Origin, config.Hetero, config.OhmWOM, config.Oracle} {
		for _, m := range config.AllModes() {
			c := oneCell(t)[0]
			c.Platform, c.Mode = p, m
			c.Config = config.Default(p, m)
			c.Config.MaxInstructions = 200
			cells = append(cells, c)
		}
	}
	ref, err := batch.NewRunner(1, nil).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	tl := newTracedLedger(len(cells))
	out := newOutcome()
	for _, traced := range []bool{false, true, false, true} {
		if err := tl.pass(cells, ref, out, traced); err != nil {
			t.Fatal(err)
		}
	}
	if out.failed != 0 {
		t.Fatalf("traced reports differ from batch.Runner: %v", out.detail["failures"])
	}
	for i, cl := range tl.first {
		if cl.acc.calls[0]+cl.acc.calls[1] != int64(ref[i].MemRequests) {
			t.Errorf("%s: %d Access calls, %d memory requests", cells[i], cl.acc.calls[0]+cl.acc.calls[1], ref[i].MemRequests)
		}
	}
}

type cellShape struct {
	p config.Platform
	m config.MemMode
	w string
}

func shapes(cells []batch.Cell) []cellShape {
	var out []cellShape
	for _, c := range cells {
		out = append(out, cellShape{c.Platform, c.Mode, c.Workload})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.p != b.p {
			return a.p < b.p
		}
		if a.m != b.m {
			return a.m < b.m
		}
		return a.w < b.w
	})
	return out
}

func TestSeedChangesInputsNotShape(t *testing.T) {
	g := desGrid{
		platforms: []config.Platform{config.Origin, config.OhmBW},
		modes:     config.AllModes(),
		workloads: []string{"lud", "sssp", "FDTD"},
	}
	a, err := g.cells(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.cells(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shapes(a), shapes(b)) || len(a) != 12 {
		t.Fatal("the seed changed the grid's shape")
	}
	if a[0].Config.Seed == b[0].Config.Seed {
		t.Fatal("the seed did not change config.Seed")
	}
	again, _ := g.cells(1)
	if !reflect.DeepEqual(a, again) {
		t.Fatal("one seed gave two grids")
	}

	stream := func(seed uint64) (kinds []string, bodies []string) {
		pool, err := warmPool(seed)
		if err != nil {
			t.Fatal(err)
		}
		s := newJobStream(seed, 0, pool)
		for i := 0; i < 2*len(blockKinds); i++ {
			j, err := s.next()
			if err != nil {
				t.Fatal(err)
			}
			kinds = append(kinds, j.kind)
			bodies = append(bodies, string(j.body))
		}
		sort.Strings(kinds)
		return kinds, bodies
	}
	k1, b1 := stream(1)
	k2, b2 := stream(2)
	if !reflect.DeepEqual(k1, k2) {
		t.Fatal("the seed changed the stream's job mix")
	}
	if reflect.DeepEqual(b1, b2) {
		t.Fatal("the seed did not change the job stream")
	}
	if _, b := stream(1); !reflect.DeepEqual(b, b1) {
		t.Fatal("one seed gave two job streams")
	}
}

func TestLatencyOverridesNeverRepeat(t *testing.T) {
	pool, err := warmPool(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for c := 0; c < streams; c++ {
		s := newJobStream(1, c, pool)
		for i := 0; i < 5000; i++ {
			// The key hashes the resolved config, whose latency is whole
			// picoseconds.
			ps := int64(math.Round(s.latencyOverride() * 1000))
			if prev, ok := seen[ps]; ok {
				t.Fatalf("stream %d draw %d repeats stream %d's latency %d ps", c, i, prev, ps)
			}
			seen[ps] = c
		}
	}
}

func TestBuildRefusesMissingAndNonFinite(t *testing.T) {
	out := newOutcome()
	out.attempted = 1
	if _, err := out.build(endToEnd, func(string) bool { return true }); err == nil {
		t.Fatal("result built without its metrics")
	}
	for _, d := range endToEnd {
		out.values[d.Name] = 1
	}
	out.values["op_ms_p50"] = math.Inf(1)
	if _, err := out.build(endToEnd, func(string) bool { return true }); err == nil {
		t.Fatal("non-finite metric accepted")
	}
	out.values["op_ms_p50"] = 1
	res, err := out.build(endToEnd, func(string) bool { return true })
	if err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	out.fail(errors.New("boom"))
	if res, _ := out.build(endToEnd, func(string) bool { return true }); res.Correct {
		t.Fatal("failed op left the result correct")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "des-oracle", "--trace", "2"},
		{"--workload", "des-oracle", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
