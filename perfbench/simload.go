package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"ccncoord/internal/sim"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
	"ccncoord/internal/workload"
)

// simWorkload is a workload that calls sim.Run in this process. The
// topology is fixed; the seed drives the request and arrival streams.
type simWorkload struct {
	topology func() (*topology.Graph, error)
	scenario func(g *topology.Graph, seed int64) sim.Scenario
}

// hierCoord: the coordinated policy on a generated 8x8x16 hierarchy
// (1096 routers), which resolves to LRU routing trees and, on two or
// more cores, to the sharded engine.
var hierCoord = simWorkload{
	topology: func() (*topology.Graph, error) {
		return topology.Hierarchical("hier-8x8x16", []topology.HierLevel{
			{Fanout: 8, MeanLatency: 20, Redundancy: 1},
			{Fanout: 8, MeanLatency: 5, Redundancy: 1},
			{Fanout: 16, MeanLatency: 1, Redundancy: 1},
		}, 1)
	},
	scenario: func(g *topology.Graph, seed int64) sim.Scenario {
		return sim.Scenario{
			Topology: g, CatalogSize: 100_000, ZipfS: 0.8, Capacity: 100, Coordinated: 50,
			Policy: sim.PolicyCoordinated, Requests: 220_000, Seed: seed,
			AccessLatency: 5, OriginLatency: 60, OriginGateway: -1,
		}
	},
}

// usaLRU: dynamic LRU stores on the calibrated US-A dataset (20 routers,
// dense routing, serial engine); most requests miss and write the cache.
var usaLRU = simWorkload{
	topology: func() (*topology.Graph, error) { return topology.USA(), nil },
	scenario: func(g *topology.Graph, seed int64) sim.Scenario {
		return sim.Scenario{
			Topology: g, CatalogSize: 10_000, ZipfS: 0.8, Capacity: 100,
			Policy: sim.PolicyLRU, Requests: 200_000, Warmup: 50_000, Seed: seed,
			AccessLatency: 5, OriginLatency: 60, OriginGateway: -1,
		}
	},
}

func runHierCoord(o Options) (*Outcome, error) { return runSim(o, hierCoord) }
func runUSALRU(o Options) (*Outcome, error)    { return runSim(o, usaLRU) }

var simWorkloads = map[string]simWorkload{"hier-coord": hierCoord, "usa-lru": usaLRU}

// Repetition counts.
const (
	setupReps   = 9 // fresh processes timed for setup_s
	minSimReps  = 3 // timed sim.Run calls, at least
	tracedBase  = 2 // untraced sim.Run calls a traced run compares against
	microReps   = 3 // repetitions of each per-layer micro timing
	zipfDraws   = 1_000_000
	setupOutKey = "setup_s"
)

// setupChild times, in this fresh process, the topology build plus a
// one-request sim.Run of the workload's scenario, and prints the time.
func setupChild(o Options) error {
	w, ok := simWorkloads[o.Workload]
	if !ok {
		return fmt.Errorf("workload %s has no child set-up", o.Workload)
	}
	t0 := time.Now()
	g, err := w.topology()
	if err != nil {
		return err
	}
	sc := w.scenario(g, o.Seed)
	sc.Requests, sc.Warmup = 1, 0
	if _, err := sim.Run(sc); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]float64{setupOutKey: time.Since(t0).Seconds()})
}

// measureSimSetup runs setupChild in setupReps fresh processes and
// returns the median.
func measureSimSetup(o Options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, "-setup-child", "-workload", o.Workload, "-seed", fmt.Sprint(o.Seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		var m map[string]float64
		if err := json.Unmarshal(out, &m); err != nil {
			return 0, fmt.Errorf("set-up child output %q: %w", out, err)
		}
		xs = append(xs, m[setupOutKey])
	}
	return median(xs), nil
}

func runSim(o Options, w simWorkload) (*Outcome, error) {
	out := &Outcome{Metrics: map[string]float64{}}
	if !o.Trace {
		s, err := measureSimSetup(o)
		if err != nil {
			return nil, err
		}
		out.Metrics["setup_s"] = s
	}

	tb := time.Now()
	g, err := w.topology()
	if err != nil {
		return nil, err
	}
	buildMs := msSince(tb)
	sc := w.scenario(g, o.Seed)
	shards, reason := sim.ResolveShardsReason(sc)
	out.Stamp = map[string]any{
		"shards":       shards,
		"shard_reason": reason,
		"routing":      sc.Routing.Resolve(g.N()).String(),
	}
	perRun := int64(sc.Requests + sc.Warmup)

	// The untimed warm-up run lets lazy set-up finish and the heap grow;
	// its manifest feeds the output checks every timed run must match.
	warm := sc
	warm.EmitManifest = true
	ref, err := sim.Run(warm)
	if err != nil {
		return nil, err
	}
	out.Attempted += perRun
	out.Failed += ref.FailedRequests
	checkSimResult(o, out, sc, ref)
	ref.Manifest = nil

	timed := func(sc sim.Scenario) (rep, error) {
		st0, c0, t0 := hostSteal(), selfCPU(), time.Now()
		res, err := sim.Run(sc)
		r := rep{res: res, wall: time.Since(t0).Seconds(), cpu: (selfCPU() - c0).Seconds()}
		r.avail = r.wall - (hostSteal() - st0).Seconds()
		if err != nil {
			return r, err
		}
		out.Attempted += perRun
		out.Failed += res.FailedRequests
		res.Manifest = nil
		if !reflect.DeepEqual(res, ref) {
			out.checkf("a repeated run's Result differs from the first run's")
		}
		return r, nil
	}

	if o.Trace {
		return out, traceSim(o, out, g, sc, buildMs, timed)
	}

	var reps []rep
	start := time.Now()
	for len(reps) < minSimReps || time.Since(start).Seconds() < o.Seconds {
		r, err := timed(sc)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	walls, avail, cpus := repTimes(reps)
	out.Metrics["sim_rps"] = float64(perRun) / median(avail)
	out.Metrics["cpu_us_per_req"] = 1e6 * median(cpus) / float64(perRun)
	out.Metrics["peak_rss_mb"] = rss
	fmt.Printf("sim.Run wall seconds:       %s\n", summarize(walls))
	fmt.Printf("sim.Run wall minus steal s: %s\n", summarize(avail))
	fmt.Printf("host steal: %.1f%% of wall time\n", 100*stealFrac(walls, avail))
	return out, nil
}

// rep is one timed sim.Run: its result, wall seconds, wall seconds minus
// the host's steal time meanwhile, and this process's CPU seconds.
type rep struct {
	res              sim.Result
	wall, avail, cpu float64
}

func repTimes(reps []rep) (walls, avail, cpus []float64) {
	for _, r := range reps {
		walls = append(walls, r.wall)
		avail = append(avail, r.avail)
		cpus = append(cpus, r.cpu)
	}
	return walls, avail, cpus
}

// stealFrac is the share of the total wall time the host stole.
func stealFrac(walls, avail []float64) float64 {
	var w, a float64
	for i := range walls {
		w += walls[i]
		a += avail[i]
	}
	return ratio(w-a, w)
}

// checkSimResult applies the output checks to the first run: every
// requested request completed, the serving tiers partition them, and for
// the default seed the statistics equal the values spec.json records.
func checkSimResult(o Options, out *Outcome, sc sim.Scenario, res sim.Result) {
	if res.Requests != sc.Requests {
		out.checkf("completed %d requests, want %d", res.Requests, sc.Requests)
	}
	if res.FailedRequests != 0 {
		out.checkf("%d requests failed", res.FailedRequests)
	}
	if sum := res.LocalHit + res.PeerHit + res.OriginLoad; math.Abs(sum-1) > 1e-9 {
		out.checkf("local+peer+origin = %v, want 1", sum)
	}
	stats := map[string]float64{
		"origin_load":      res.OriginLoad,
		"local_hit":        res.LocalHit,
		"peer_hit":         res.PeerHit,
		"mean_hops":        res.MeanHops,
		"events_processed": float64(res.Manifest.Engine.EventsProcessed),
	}
	js, _ := json.Marshal(stats) // a map of finite floats always encodes
	fmt.Printf("stats (seed %d): %s\n", o.Seed, js)
	if o.Seed != o.Spec.DefaultSeed {
		return
	}
	golden := o.Spec.Workloads[o.Workload].Golden
	if len(golden) == 0 {
		out.checkf("spec.json records no statistics for %s", o.Workload)
	}
	for k, want := range golden {
		if got, ok := stats[k]; !ok || got != want {
			out.checkf("%s = %v, spec.json records %v", k, got, want)
		}
	}
}

// traceSim is the traced variant: a CPU-profiled run with the manifest
// and engine telemetry on, per-layer micro timings, and the per-layer
// table.
func traceSim(o Options, out *Outcome, g *topology.Graph, sc sim.Scenario, buildMs float64,
	timed func(sim.Scenario) (rep, error)) error {
	m := out.Metrics
	perRun := float64(sc.Requests + sc.Warmup)

	var base []float64
	for i := 0; i < tracedBase; i++ {
		r, err := timed(sc)
		if err != nil {
			return err
		}
		base = append(base, r.avail)
	}

	traced := sc
	traced.EmitManifest = true
	traced.EngineTelemetry = true
	profPath := filepath.Join(o.Work, "cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	// Profile whole runs until half the measured time has passed.
	var reps []rep
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < o.Seconds/2 {
		traced.Timeline = timeline.NewRing(16)
		var r rep
		if r, err = timed(traced); err != nil {
			break
		}
		reps = append(reps, r)
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	walls, avail, _ := repTimes(reps)
	profiled := perRun * float64(len(reps))
	m["trace.overhead_frac"] = median(avail)/median(base) - 1
	m["host.steal_frac"] = stealFrac(walls, avail)
	m["runtime.allocs_per_req"] = float64(ms1.Mallocs-ms0.Mallocs) / profiled
	m["runtime.alloc_bytes_per_req"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / profiled
	res := reps[len(reps)-1].res

	if p, _ := sim.ResolveShardsReason(sc); p > 1 {
		serial := sc
		serial.Shards = 1
		if _, err := timed(serial); err != nil {
			return err
		}
	}

	a, err := attributeProfile(profPath)
	if err != nil {
		return err
	}
	layerMetrics(a, m)

	man := res.Manifest
	eng := man.Engine
	m["des.events_per_req"] = float64(eng.EventsProcessed) / perRun
	m["des.pending_peak"] = float64(eng.PendingPeak)
	m["des.cross_shard_frac"] = ratio(float64(eng.CrossShardEvents), float64(eng.EventsProcessed))
	m["des.windows"] = float64(eng.Windows)
	var busy, wait float64
	for _, s := range eng.ShardStats {
		busy += s.BusyWallMs
		wait += s.BarrierWaitWallMs
	}
	m["des.barrier_wait_frac"] = ratio(wait, busy+wait)
	tr := man.Transport
	m["ccn.tx_per_req"] = float64(tr.InterestTransmissions+tr.DataTransmissions) / perRun
	nt := man.NodeTotals
	m["ccn.pit_aggregated_frac"] = ratio(float64(nt.Aggregated), float64(nt.CSMisses))
	m["cache.hit_ratio"] = ratio(float64(nt.CSHits), float64(nt.CSHits+nt.CSMisses))
	m["coord.messages"] = float64(man.Coordination.Messages)
	m["coord.replans"] = float64(len(man.Timeline))
	// Batch runs record placement installs with WallMs = 0, so the
	// re-plan wall times exist only on ccnd-open.
	m["coord.replan_ms_p50"], m["coord.replan_ms_max"] = 0, 0

	m["topology.build_ms"] = buildMs
	one := sc
	one.Requests, one.Warmup = 1, 0
	if m["topology.partition_ms"], err = microMs(func() error { _, err := topology.PartitionGraph(g, 2); return err }); err != nil {
		return err
	}
	if m["topology.maxdist_ms"], err = microMs(func() error { topology.NewLRUPaths(g, 0).MaxDist(); return nil }); err != nil {
		return err
	}
	if m["sim.fixed_ms"], err = microMs(func() error { _, err := sim.Run(one); return err }); err != nil {
		return err
	}
	if m["workload.draw_ns"], err = zipfDrawNs(sc.ZipfS, sc.CatalogSize, o.Seed); err != nil {
		return err
	}
	for _, k := range ccndOnlyLayerMetrics {
		m[k] = 0
	}
	return nil
}

// ccndOnlyLayerMetrics exist only where ccnd runs; sim workloads report
// them as 0.
var ccndOnlyLayerMetrics = []string{
	"daemon.batch_ms_p50", "daemon.batch_ms_p99", "daemon.admit_rtt_ms_p50", "daemon.admit_rtt_ms_p99", "daemon.stats_rtt_ms_p50",
	"daemon.queued_p99", "loadgen.lag_ms_p99", "loadgen.lag_ms_max", "loadgen.latency_samples",
}

// microMs returns the median wall time of microReps calls of fn, in ms.
func microMs(fn func() error) (float64, error) {
	var xs []float64
	for i := 0; i < microReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs = append(xs, msSince(t0))
	}
	return median(xs), nil
}

// zipfDrawNs times draws from the workload's Zipf generator.
func zipfDrawNs(s float64, n, seed int64) (float64, error) {
	g, err := workload.NewZipf(s, n, seed)
	if err != nil {
		return 0, err
	}
	var sink uint64
	t0 := time.Now()
	for i := 0; i < zipfDraws; i++ {
		sink += uint64(g.Next())
	}
	ns := float64(time.Since(t0).Nanoseconds()) / zipfDraws
	if sink == 0 {
		return 0, fmt.Errorf("zipf generator drew only id 0")
	}
	return ns, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
