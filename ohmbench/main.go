// Command ohmbench is the repository benchmark. It runs one workload per
// process and prints, as the last line of standard output, one JSON object
// with the run's correctness tallies and metrics: the end-to-end metrics
// untraced (-trace 0), the per-layer metrics traced (-trace 1). METRICS.md
// defines every name and why each workload exists.
//
// Usage, from the repository root:
//
//	bash ohmbench/run.sh --workload des-hetero --seed 1 --seconds 25 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/config"
)

// opts are one run's flags.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
}

func (o opts) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// workload is one benchmark workload. owns lists the per-layer metric
// prefixes its traced run measures; the others read 0.
type workload struct {
	name string
	run  func(opts) (*outcome, error)
	owns []string
}

var desLayers = []string{"trace.", "core.", "gpu.", "hmem.", "dram.", "xpoint.", "optical.", "elec.", "bench."}

var workloads = []workload{
	{
		name: "des-hetero",
		run: desGrid{
			platforms: []config.Platform{config.Origin, config.Hetero, config.OhmBase, config.AutoRW, config.OhmWOM, config.OhmBW},
			modes:     []config.MemMode{config.Planar, config.TwoLevel},
			workloads: []string{"GRAMS", "FDTD", "pagerank", "sssp"},
		}.runner(),
		owns: desLayers,
	},
	{
		name: "des-oracle",
		run: desGrid{
			platforms: []config.Platform{config.Oracle},
			modes:     []config.MemMode{config.Planar},
			workloads: config.WorkloadNames(),
			nocProbe:  []string{"GRAMS", "lud", "pagerank"},
		}.runner(),
		owns: append([]string{"noc."}, desLayers...),
	},
	{
		name: "serve-mixed",
		run:  runServe,
		owns: []string{"trace.", "serve.", "batch.", "cache.", "twin.", "bench."},
	},
}

func (g desGrid) runner() func(opts) (*outcome, error) {
	return func(o opts) (*outcome, error) { return runDES(g, o) }
}

func (w workload) ownsMetric(name string) bool {
	for _, p := range w.owns {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ohmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: des-hetero, des-oracle or serve-mixed")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "ohmbench: need -workload (des-hetero, des-oracle, serve-mixed), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *traced == 1}
	out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "ohmbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res, err := out.build(defs, w.ownsMetric)
	if err != nil {
		fmt.Fprintf(stderr, "ohmbench: %s: %v\n", w.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	_ = enc.Encode(map[string]any{"host": hostBlock(w.name, o, out.detail["grid_size"])})
	_ = enc.Encode(map[string]any{"detail": out.detail})
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "ohmbench: %v\n", err)
		return 1
	}
	return 0
}

// hostBlock describes where and on what a result was measured.
func hostBlock(name string, o opts, grid any) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workload":   name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"traced":     o.trace,
		"grid_size":  grid,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build saw
// one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak RSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
