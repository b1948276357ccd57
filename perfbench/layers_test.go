package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestAttributeInnermostLayerFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapassign_fast64", "ccncoord/internal/coord.StripeWeighted", "ccncoord/internal/sim.provisionPolicy"}, "coord"},
		{[]string{"ccncoord/internal/topology.(*pq).pop", "ccncoord/internal/ccn.(*Network).sendUpstream", "ccncoord/internal/des.(*Shard).runWindow"}, "topology"},
		{[]string{"ccncoord/internal/zipf.(*Sampler).Next", "ccncoord/internal/workload.(*ZipfGenerator).Next"}, "workload"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.mallocgc", "runtime.gcBgMarkWorker", "ccncoord/internal/cache.(*LRU).Insert"}, "cache"},
		{[]string{"ccncoord/internal/catalog.(*Catalog).Name", "ccncoord/internal/ccn.(*Network).handleData"}, bucketOther},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, bucketOther},
		{nil, bucketOther},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

const tracesSample = `File: perfbench
Type: cpu
Duration: 5.06s, Total samples = 90ms (1.78%)
-----------+-------------------------------------------------------
      10ms   runtime.mapassign_fast64
             ccncoord/internal/coord.StripeWeighted
             main.main
-----------+-------------------------------------------------------
      30ms   ccncoord/internal/topology.(*pq).pop
             ccncoord/internal/topology.(*Graph).dijkstraRows
             ccncoord/internal/sim.runSharded
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   math/rand.seedrand (inline)
             ccncoord/internal/workload.(*ZipfFamily).Gen
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.mcall
-----------+-------------------------------------------------------
`

func TestParseTracesBucketsPartitionSamples(t *testing.T) {
	a, err := parseTraces(strings.NewReader(tracesSample))
	if err != nil {
		t.Fatal(err)
	}
	if a.Records != 5 || a.Total != 90*time.Millisecond {
		t.Fatalf("parsed %d records totalling %v, want 5 and 90ms", a.Records, a.Total)
	}
	want := map[string]time.Duration{
		"coord": 10 * time.Millisecond, "topology": 30 * time.Millisecond,
		bucketGC: 20 * time.Millisecond, "workload": 20 * time.Millisecond, bucketOther: 10 * time.Millisecond,
	}
	var sum time.Duration
	for b, d := range a.Buckets {
		sum += d
		if want[b] != d {
			t.Errorf("bucket %s = %v, want %v", b, d, want[b])
		}
	}
	if sum != a.Total {
		t.Errorf("buckets sum to %v, total %v", sum, a.Total)
	}

	m := map[string]float64{}
	layerMetrics(a, m)
	frac := 0.0
	for k, v := range m {
		if strings.HasSuffix(k, ".self_frac") || k == "runtime.gc_frac" {
			frac += v
		}
	}
	if math.Abs(frac-1) > 1e-12 {
		t.Errorf("layer fractions sum to %v, want 1", frac)
	}
	if m["trace.samples"] != 9 {
		t.Errorf("trace.samples = %v, want 9", m["trace.samples"])
	}
}

func TestParseTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := parseTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Fatal("want an error for a profile without samples")
	}
}

// TestLayerTableMatchesModules fails when a package of the layer table is
// renamed or removed, and when BENCHMARK.json's per-layer self_frac
// metrics and the layer table disagree.
func TestLayerTableMatchesModules(t *testing.T) {
	for _, l := range Layers {
		for _, p := range l.Packages {
			if fi, err := os.Stat(filepath.Join("..", "internal", p)); err != nil || !fi.IsDir() {
				t.Errorf("layer %s: package internal/%s not found", l.Name, p)
			}
		}
	}
	b, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range b.PerLayer {
		if name, ok := strings.CutSuffix(d.Name, ".self_frac"); ok {
			declared[name] = true
		}
	}
	for _, l := range Layers {
		if !declared[l.Name] {
			t.Errorf("BENCHMARK.json lacks %s.self_frac", l.Name)
		}
		delete(declared, l.Name)
	}
	delete(declared, bucketOther)
	for name := range declared {
		t.Errorf("BENCHMARK.json declares %s.self_frac, which is no layer", name)
	}
}

func TestSpecParses(t *testing.T) {
	var s Spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		t.Fatal(err)
	}
	for name := range simWorkloads {
		if len(s.Workloads[name].Golden) == 0 {
			t.Errorf("spec.json records no statistics for %s", name)
		}
	}
}
