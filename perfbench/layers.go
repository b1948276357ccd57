package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// Layers are the repository's modules the per-layer table reports, in
// print order. Each names the internal packages whose frames it owns.
var Layers = []struct {
	Name     string
	Packages []string
}{
	{"topology", []string{"topology"}},
	{"des", []string{"des"}},
	{"ccn", []string{"ccn"}},
	{"cache", []string{"cache"}},
	{"coord", []string{"coord"}},
	{"workload", []string{"workload", "zipf"}},
	{"sim", []string{"sim"}},
	{"daemon", []string{"daemon"}},
	{"metrics", []string{"metrics"}},
}

// Bucket names for samples outside every layer.
const (
	bucketGC    = "runtime.gc"
	bucketOther = "other"
)

const modulePrefix = "ccncoord/internal/"

// samplePeriod is the CPU profiler's default sampling period (100 Hz).
const samplePeriod = 10 * time.Millisecond

// layerOf maps an internal package name to its layer, "" for none.
func layerOf(pkg string) string {
	for _, l := range Layers {
		for _, p := range l.Packages {
			if p == pkg {
				return l.Name
			}
		}
	}
	return ""
}

// attribute returns the bucket of one stack, listed leaf first: the
// layer of the innermost ccncoord/internal/<pkg> frame; runtime.gc for a
// background GC worker's stack with no such frame; other otherwise
// (including an innermost internal package outside the layer table).
func attribute(stack []string) string {
	gc := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, modulePrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if l := layerOf(pkg); l != "" {
				return l
			}
			return bucketOther
		}
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			gc = true
		}
	}
	if gc {
		return bucketGC
	}
	return bucketOther
}

// Attribution is a CPU profile split into buckets.
type Attribution struct {
	Records int                      // distinct stacks parsed
	Total   time.Duration            // CPU time over all samples
	Buckets map[string]time.Duration // bucket -> CPU time
}

// Frac returns the bucket's share of the profile's CPU time.
func (a Attribution) Frac(bucket string) float64 {
	if a.Total <= 0 {
		return 0
	}
	return float64(a.Buckets[bucket]) / float64(a.Total)
}

// parseTraces reads `go tool pprof -traces` output: records separated by
// "-----------+----" lines, each opening with the sample value and the
// leaf frame, followed by one caller frame per line.
func parseTraces(r io.Reader) (Attribution, error) {
	a := Attribution{Buckets: map[string]time.Duration{}}
	var (
		val   time.Duration
		stack []string
		open  bool
	)
	flush := func() {
		// The output ends with a separator, which opens no record.
		if open && len(stack) > 0 {
			a.Buckets[attribute(stack)] += val
			a.Total += val
			a.Records++
		}
		open, stack, val = false, stack[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			open = true
			continue
		}
		if !open {
			continue // header
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return a, fmt.Errorf("parsing sample value %q: %w", fields[0], err)
			}
			val = d
			fields = fields[1:]
			if len(fields) == 0 {
				continue
			}
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return a, err
	}
	if a.Records == 0 {
		return a, fmt.Errorf("profile holds no samples")
	}
	return a, nil
}

// attributeProfile runs `go tool pprof -traces` on a CPU profile file.
func attributeProfile(path string) (Attribution, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return Attribution{}, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(strings.NewReader(string(out)))
}

// layerMetrics adds each bucket's self_frac to m.
func layerMetrics(a Attribution, m map[string]float64) {
	for _, l := range Layers {
		m[l.Name+".self_frac"] = a.Frac(l.Name)
	}
	m["runtime.gc_frac"] = a.Frac(bucketGC)
	m["other.self_frac"] = a.Frac(bucketOther)
	m["trace.samples"] = float64(a.Total / samplePeriod)
}
