// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks the program's outputs, and prints as
// its last line one JSON object with the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run) that BENCHMARK.json names.
//
// Run it from the repository root through the launcher, which builds
// this driver and cmd/ccnd from source into .bench_build first:
//
//	bash perfbench/run.sh --workload hier-coord --seed 1 --seconds 20 --trace 0
//
// Workloads: hier-coord and usa-lru call sim.Run in this process;
// ccnd-open drives the built ccnd binary over loopback HTTP. spec.json
// records each workload's parameters, the metric definitions and the
// default seed's expected simulation statistics; spreads.md records the
// observed spreads behind the bounds.
//
// Two saved outputs can be compared with
//
//	.bench_build/perfbench -compare old.txt new.txt
//
// which refuses when their environment stamps differ.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed spec.json
var specJSON []byte

// Spec is spec.json: per-workload parameters and expected outputs.
type Spec struct {
	DefaultSeed int64                   `json:"default_seed"`
	Workloads   map[string]WorkloadSpec `json:"workloads"`
}

// WorkloadSpec records one workload's expected statistics for the
// default seed; an empty Golden skips that check.
type WorkloadSpec struct {
	Golden map[string]float64 `json:"golden"`
}

// Options are the command-line settings of one run.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Root     string // repository root (holds BENCHMARK.json)
	Bin      string // directory holding the built ccnd binary
	Work     string // temporary directory for profiles and manifests
	Spec     Spec
}

// Outcome is what one workload run measured.
type Outcome struct {
	Attempted int64
	Failed    int64
	Problems  []string           // failed output checks
	Metrics   map[string]float64 // by BENCHMARK.json name
	Stamp     map[string]any     // workload part of the environment stamp
}

// checkf records a failed output check.
func (o *Outcome) checkf(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

type workloadFunc func(Options) (*Outcome, error)

var workloads = map[string]workloadFunc{
	"hier-coord": runHierCoord,
	"usa-lru":    runUSALRU,
	"ccnd-open":  runCCNDOpen,
}

func main() {
	var (
		o       Options
		trace   int
		child   bool
		compare bool
	)
	flag.StringVar(&o.Workload, "workload", "", "workload: hier-coord, usa-lru or ccnd-open")
	flag.Int64Var(&o.Seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.Root, "root", ".", "repository root")
	flag.StringVar(&o.Bin, "bin", ".bench_build", "directory holding the built ccnd binary")
	flag.BoolVar(&child, "setup-child", false, "internal: time one set-up of -workload in this fresh process")
	flag.BoolVar(&compare, "compare", false, "compare two saved outputs given as arguments")
	flag.Parse()
	o.Trace = trace == 1

	if compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two saved outputs")
		}
		if err := compareOutputs(flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if err := json.Unmarshal(specJSON, &o.Spec); err != nil {
		fatalf("parsing spec.json: %v", err)
	}
	run, ok := workloads[o.Workload]
	if !ok {
		fatalf("unknown workload %q", o.Workload)
	}
	if child {
		if err := setupChild(o); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if !(o.Seconds > 0) {
		fatalf("-seconds must be positive")
	}
	bench, err := loadBenchmark(filepath.Join(o.Root, "BENCHMARK.json"))
	if err != nil {
		fatalf("%v", err)
	}
	work, err := os.MkdirTemp(o.Bin, "run-")
	if err != nil {
		fatalf("creating a temporary directory: %v", err)
	}
	o.Work = work
	out, err := run(o)
	os.RemoveAll(work)
	if err != nil {
		fatalf("%s: %v", o.Workload, err)
	}
	if err := report(o, bench, out); err != nil {
		fatalf("%v", err)
	}
	if len(out.Problems) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// MetricDecl is one metric entry of BENCHMARK.json.
type MetricDecl struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// Benchmark is the part of BENCHMARK.json the driver reads.
type Benchmark struct {
	EndToEnd []MetricDecl `json:"end_to_end"`
	PerLayer []MetricDecl `json:"per_layer"`
}

func loadBenchmark(path string) (Benchmark, error) {
	var b Benchmark
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("parsing %s: %w", path, err)
	}
	return b, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the environment stamp, a readable metric table and, as
// the last line, the result object holding exactly the declared metrics
// of this run's kind.
func report(o Options, b Benchmark, out *Outcome) error {
	decls := b.EndToEnd
	if o.Trace {
		decls = b.PerLayer
	}
	res := resultLine{
		Correct:   len(out.Problems) == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range decls {
		v, ok := out.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s did not measure declared metric %s", o.Workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, p := range out.Problems {
		fmt.Printf("check failed: %s\n", p)
	}
	stamp := environmentStamp(o, out.Stamp)
	sj, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Printf("stamp: %s\n", sj)
	for _, d := range decls {
		fmt.Printf("%-28s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// compareOutputs reads two saved benchmark outputs, refuses them when
// their environment stamps differ, and prints each metric's change.
func compareOutputs(oldPath, newPath string, w *os.File) error {
	type parsed struct {
		stamp string
		res   resultLine
	}
	read := func(path string) (parsed, error) {
		var p parsed
		data, err := os.ReadFile(path)
		if err != nil {
			return p, err
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		for _, l := range lines {
			if s, ok := strings.CutPrefix(l, "stamp: "); ok {
				p.stamp = s
			}
		}
		if p.stamp == "" {
			return p, fmt.Errorf("%s: no environment stamp", path)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p.res); err != nil {
			return p, fmt.Errorf("%s: last line is not a result: %w", path, err)
		}
		return p, nil
	}
	a, err := read(oldPath)
	if err != nil {
		return err
	}
	b, err := read(newPath)
	if err != nil {
		return err
	}
	if a.stamp != b.stamp {
		return fmt.Errorf("environment stamps differ; refusing to compare\n  %s\n  %s", a.stamp, b.stamp)
	}
	names := make([]string, 0, len(a.res.Metrics))
	for n := range a.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		av, bv := a.res.Metrics[n], b.res.Metrics[n]
		change := 0.0
		if av.Value != 0 {
			change = bv.Value/av.Value - 1
		}
		fmt.Fprintf(w, "%-28s %14.6g -> %-14.6g %+7.2f%% %s\n", n, av.Value, bv.Value, 100*change, av.Unit)
	}
	return nil
}
