package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"ccncoord/internal/fault"
	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
	"ccncoord/internal/workload"
)

// goldenScenario is the small base every TestRunGolden row mutates: a
// coordinated run on US-A with a warmup phase and a manifest.
func goldenScenario() Scenario {
	sc := testScenario()
	sc.CatalogSize = 2000
	sc.Capacity = 40
	sc.Coordinated = 20
	sc.Requests = 4000
	sc.Warmup = 500
	sc.EmitManifest = true
	return sc
}

// goldenHierarchy is a small generated hierarchy for the sharded rows.
func goldenHierarchy(t *testing.T) *topology.Graph {
	t.Helper()
	levels, err := topology.ParseHierSpec("2,4,6", "20,5,1", "1,1,0")
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Hierarchical("golden-hier", levels, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenDigest hashes a run's complete output: the Result in Go's %+v
// form (float64 values print as the shortest decimal that parses back
// to the same bits), the manifest through WriteJSON with its
// wall-clock leaves zeroed, and the trace stream when there is one.
func goldenDigest(t *testing.T, res Result, traceBytes []byte) string {
	t.Helper()
	h := sha256.New()
	m := res.Manifest
	res.Manifest = nil
	fmt.Fprintf(h, "%+v\n", res)
	if m != nil {
		for i := range m.Engine.ShardStats {
			m.Engine.ShardStats[i].BusyWallMs = 0
			m.Engine.ShardStats[i].BarrierWaitWallMs = 0
		}
		for i := range m.Timeline {
			m.Timeline[i].WallMs = 0
		}
		if err := m.WriteJSON(h); err != nil {
			t.Fatal(err)
		}
	}
	h.Write(traceBytes)
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunGolden pins the absolute output of every scenario feature the
// run driver touches: one row per branch (policies, assignments,
// heterogeneous capacities, external placements, loss, link queueing,
// scripted and stochastic faults, chaos with checkpoints, tracing,
// reports with a drifting workload and a timeline, and sharded widths).
// Comparing two runs of the same code cannot catch a change that moves
// both sides; these digests can. Go fuses floating-point multiply-add
// on arm64, ppc64x and s390x, which changes low-order bits, so the
// digests hold on amd64 only.
func TestRunGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64; %s fuses floating-point multiply-add, which changes result bits", runtime.GOARCH)
	}
	rows := []struct {
		name   string
		mutate func(t *testing.T, sc *Scenario)
		want   string
	}{
		{"coordinated-stripe", func(*testing.T, *Scenario) {}, "6cfba1bb57511450d5fc2f4f1dd73bf6b725c30d30d20654156b30ac6c4d10af"},
		{"coordinated-hash", func(_ *testing.T, sc *Scenario) { sc.Assignment = AssignHash }, "bb8ed81571d5f8a5440e94439cc4a760c1b032d137f1d0b6f30cce599e1f6544"},
		{"heterogeneous-capacities", func(_ *testing.T, sc *Scenario) {
			sc.Capacities = make([]int64, sc.Topology.N())
			for i := range sc.Capacities {
				sc.Capacities[i] = 20 + int64(i%4)*10
			}
		}, "62f1a5dca12cc40a7d60e8bf18ff74d0dea69fca3ea01b026d19f575215ae5af"},
		{"external-placement", func(t *testing.T, sc *Scenario) {
			routers := make([]topology.NodeID, sc.Topology.N())
			for i := range routers {
				routers[i] = topology.NodeID(i)
			}
			counts := map[catalogID]int64{}
			for rank := int64(1); rank <= 1000; rank++ {
				counts[catalogID(rank)] = 1500 - rank
			}
			p, err := computePlacement(routers, counts, sc.Capacity-sc.Coordinated, sc.Coordinated)
			if err != nil {
				t.Fatal(err)
			}
			sc.Placement = p
		}, "41c3eca824430f9e64cc66efeb8ac11d7d2eb0b12cb4f1993badd3f0b3efebc9"},
		{"lru", func(_ *testing.T, sc *Scenario) { sc.Policy = PolicyLRU }, "5b3a8970cc5cf91670f345bb6e0fd05f542ba32e0c1a7ad899a1613905007f58"},
		{"lfu", func(_ *testing.T, sc *Scenario) { sc.Policy = PolicyLFU }, "857e68070ba17aa92d98f1dc62a6b28f3005a488a59d94b9ed89b1ccc91d9387"},
		{"slru", func(_ *testing.T, sc *Scenario) { sc.Policy = PolicySLRU }, "7ced795a3410a0392ad36b305d051610fc0c0617ae33fa53248c4bb643466640"},
		{"2q", func(_ *testing.T, sc *Scenario) { sc.Policy = PolicyTwoQ }, "a7008d9feccfc5592ee4f2b1ffc9118bd380b425de717bed32b19819b4859366"},
		{"probcache", func(_ *testing.T, sc *Scenario) { sc.Policy = PolicyProbCache }, "9f1ba03b4d874ba3cc0653b772494a68ece0095a4b292c35de95c0def5107777"},
		{"loss-retx", func(_ *testing.T, sc *Scenario) {
			sc.LossRate = 0.05
			sc.RetxTimeout = 300
		}, "1c1cb847f080fea22505a16de5843b12a6f90a0763bf18706ec9247ab0986173"},
		{"link-rate", func(_ *testing.T, sc *Scenario) { sc.LinkRate = 2 }, "18ec7dd00bf781ae4356e31c38649cedc489c89083f01ce59e95928a878e2ee0"},
		{"fault-script", func(_ *testing.T, sc *Scenario) {
			sc.RetxTimeout = 200
			sc.HeartbeatInterval = 20
			sc.FaultScript = []fault.Event{
				{At: 40, Kind: fault.RouterDown, Node: 3},
				{At: 150, Kind: fault.RouterUp, Node: 3},
			}
		}, "81ff64403ab8734d4a136a4cdaa0696bc08a883e88d922e6a82624c1233e698e"},
		{"mtbf-mttr", func(_ *testing.T, sc *Scenario) {
			sc.RetxTimeout = 200
			sc.MTBF = 400
			sc.MTTR = 60
			sc.HeartbeatInterval = 20
			sc.FaultSeed = 5
		}, "c24a49e041dabc20c1be7a9e8e30786d11807c23f4b3bd7850214d1a2a518570"},
		{"chaos-checkpoint", func(t *testing.T, sc *Scenario) {
			*sc = chaosScenario(t, "coord-crash")
			sc.EmitManifest = true
			sc.CheckpointPath = filepath.Join(t.TempDir(), "coordinator.ckpt")
		}, "0e0f12700c09adae226ed80f4ff228465a30f3f6f1663eed88c982ae1086069b"},
		{"traced", func(_ *testing.T, sc *Scenario) {
			sc.RetxTimeout = 200
			sc.HeartbeatInterval = 20
			sc.FaultScript = []fault.Event{{At: 40, Kind: fault.RouterDown, Node: 3}, {At: 150, Kind: fault.RouterUp, Node: 3}}
		}, "6dc2ecdfa16eaf814b1040a42504582d2bfc375dcd7c9ab94c88dcc4ae236625"},
		{"reports-drift-timeline", func(_ *testing.T, sc *Scenario) {
			sc.CollectReports = true
			sc.Timeline = timeline.NewRing(8)
			n := sc.CatalogSize
			sc.WorkloadFactory = func(r topology.NodeID) (workload.Generator, error) {
				return workload.NewDriftingZipf(0.7, 1.0, n, 300, 100, 7, int64(r)+11)
			}
		}, "4fe5b9c3a6f978cea85ab8db36f99bed11a047be30c601494d915afd049e19a5"},
		{"shards-2", func(t *testing.T, sc *Scenario) {
			sc.Topology = goldenHierarchy(t)
			sc.Routing = topology.BackendLRU
			sc.Policy = PolicyLRU
			sc.OriginGateway = 0
			sc.Shards = 2
		}, "88edd3e543035c1050291130957cb4f0ec57d53763c6eb9d7dd62c3800ea5f90"},
		{"shards-4", func(t *testing.T, sc *Scenario) {
			sc.Topology = goldenHierarchy(t)
			sc.Routing = topology.BackendLRU
			sc.Shards = 4
			sc.EngineTelemetry = true
		}, "b72ea98ebd2948d98e6b7679902949bc644bf578c59c4afd12b2be71de572354"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			sc := goldenScenario()
			row.mutate(t, &sc)
			var traced bytes.Buffer
			var tr *trace.Tracer
			if row.name == "traced" {
				var err error
				if tr, err = trace.New(&traced, 1); err != nil {
					t.Fatal(err)
				}
				sc.Tracer = tr
			}
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if tr != nil {
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if got := goldenDigest(t, res, traced.Bytes()); got != row.want {
				t.Errorf("digest %s, want %s", got, row.want)
			}
		})
	}
}
