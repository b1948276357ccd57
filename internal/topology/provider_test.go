package topology

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// equivalenceGraphs returns the graphs the backend-equivalence suite
// runs over: all four calibrated datasets plus random and Waxman
// instances, covering both hand-calibrated and continuous latencies.
func equivalenceGraphs(t *testing.T) []*Graph {
	t.Helper()
	graphs := All()
	rnd, err := RandomConnected(60, 140, 1, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	wax, err := Waxman("wax-equiv", 80, 200, 3000, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	return append(graphs, rnd, wax)
}

func TestParseBackend(t *testing.T) {
	cases := map[string]Backend{
		"": BackendAuto, "auto": BackendAuto,
		"dense": BackendDense, "lru": BackendLRU,
	}
	for in, want := range cases {
		got, err := ParseBackend(in)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// Only the documented names are accepted, and a rejection lists them.
	for _, in := range []string{"landmark", "apsp", "bogus"} {
		_, err := ParseBackend(in)
		if err == nil {
			t.Errorf("ParseBackend(%q) should fail", in)
			continue
		}
		if !strings.Contains(err.Error(), "auto, dense, or lru") {
			t.Errorf("ParseBackend(%q) error %q does not name the accepted values", in, err)
		}
	}
}

func TestBackendResolve(t *testing.T) {
	if got := BackendAuto.Resolve(DenseAutoThreshold - 1); got != BackendDense {
		t.Errorf("auto below threshold = %v, want dense", got)
	}
	if got := BackendAuto.Resolve(DenseAutoThreshold); got != BackendLRU {
		t.Errorf("auto at threshold = %v, want lru", got)
	}
	for _, b := range []Backend{BackendDense, BackendLRU} {
		if got := b.Resolve(5); got != b {
			t.Errorf("%v.Resolve = %v, want itself", b, got)
		}
	}
}

func TestNewPathProviderBackends(t *testing.T) {
	g := Abilene()
	for _, b := range []Backend{BackendAuto, BackendDense, BackendLRU} {
		p, err := NewPathProvider(g, b)
		if err != nil {
			t.Fatalf("NewPathProvider(%v): %v", b, err)
		}
		if p.N() != g.N() {
			t.Errorf("%v backend covers %d nodes, want %d", b, p.N(), g.N())
		}
	}
	if _, err := NewPathProvider(g, Backend(99)); err == nil {
		t.Error("unknown backend should fail")
	}
}

// TestLRUEquivalence asserts the LRU backend is bit-identical to the
// dense APSP — Dist, Next, MaxDist — on every
// calibrated dataset plus random and Waxman graphs, for every ordered
// pair. Bit-identical means ==, not within-epsilon: both backends run
// the same Dijkstra kernel over the same adjacency order.
func TestLRUEquivalence(t *testing.T) {
	for _, g := range equivalenceGraphs(t) {
		dense := g.ShortestPathsLatency()
		lru := NewLRUPaths(g, 0)
		n := g.N()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				si, sj := NodeID(i), NodeID(j)
				if d, want := lru.Dist(si, sj), dense.Dist(si, sj); d != want {
					t.Fatalf("%s: lru.Dist(%d,%d) = %v, dense %v", g.Name(), i, j, d, want)
				}
				if nx, want := lru.Next(si, sj), dense.Next(si, sj); nx != want {
					t.Fatalf("%s: lru.Next(%d,%d) = %v, dense %v", g.Name(), i, j, nx, want)
				}
			}
		}
		if got, want := lru.MaxDist(), dense.MaxDist(); got != want {
			t.Errorf("%s: lru.MaxDist = %v, dense %v", g.Name(), got, want)
		}
	}
}

// TestLRUEvictionStaysExact caps the cache far below the source count
// and checks queries remain bit-identical to dense while evictions
// actually happen.
func TestLRUEvictionStaysExact(t *testing.T) {
	g, err := Waxman("wax-evict", 50, 120, 3000, 0.4, 3)
	if err != nil {
		t.Fatal(err)
	}
	dense := g.ShortestPathsLatency()
	lru := NewLRUPaths(g, 4)
	if lru.Capacity() != 4 {
		t.Fatalf("capacity = %d, want 4", lru.Capacity())
	}
	n := g.N()
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			j := (i*7 + round) % n
			if d, want := lru.Dist(NodeID(i), NodeID(j)), dense.Dist(NodeID(i), NodeID(j)); d != want {
				t.Fatalf("Dist(%d,%d) = %v, want %v", i, j, d, want)
			}
		}
	}
	hits, misses, evictions := lru.Stats()
	if misses == 0 || evictions == 0 {
		t.Errorf("expected misses and evictions with capacity 4 over %d sources: hits=%d misses=%d evictions=%d",
			n, hits, misses, evictions)
	}
}

// TestLRUInvalidationOnMutation is the regression test for the
// generation-bump satellite: after warm queries, every Graph mutator
// must invalidate the LRU cache so the next query sees fresh distances.
func TestLRUInvalidationOnMutation(t *testing.T) {
	build := func() *Graph {
		g := New("mut")
		for i := 0; i < 4; i++ {
			g.AddNode("", 0, 0)
		}
		g.MustAddEdge(0, 1, 10)
		g.MustAddEdge(1, 2, 10)
		g.MustAddEdge(2, 3, 10)
		return g
	}

	t.Run("ScaleLatencies", func(t *testing.T) {
		g := build()
		lru := NewLRUPaths(g, 0)
		if d := lru.Dist(0, 3); d != 30 {
			t.Fatalf("warm Dist = %v, want 30", d)
		}
		if err := g.ScaleLatencies(2); err != nil {
			t.Fatal(err)
		}
		if d := lru.Dist(0, 3); d != 60 {
			t.Errorf("post-scale Dist = %v, want 60 (stale tree served)", d)
		}
	})

	t.Run("AddEdge", func(t *testing.T) {
		g := build()
		lru := NewLRUPaths(g, 0)
		lru.Warm([]NodeID{0, 1, 2, 3}, 2)
		if d := lru.Dist(0, 3); d != 30 {
			t.Fatalf("warm Dist = %v, want 30", d)
		}
		g.MustAddEdge(0, 3, 5)
		if d := lru.Dist(0, 3); d != 5 {
			t.Errorf("post-AddEdge Dist = %v, want 5 (stale tree served)", d)
		}
		if nx := lru.Next(0, 3); nx != 3 {
			t.Errorf("post-AddEdge Next = %v, want 3", nx)
		}
	})

	t.Run("RemoveEdge", func(t *testing.T) {
		g := build()
		g.MustAddEdge(0, 3, 5)
		lru := NewLRUPaths(g, 0)
		if d := lru.Dist(0, 3); d != 5 {
			t.Fatalf("warm Dist = %v, want 5", d)
		}
		if err := g.RemoveEdge(0, 3); err != nil {
			t.Fatal(err)
		}
		if d := lru.Dist(0, 3); d != 30 {
			t.Errorf("post-RemoveEdge Dist = %v, want 30 (stale tree served)", d)
		}
	})

	t.Run("AddNode", func(t *testing.T) {
		g := build()
		lru := NewLRUPaths(g, 0)
		if d := lru.Dist(0, 3); d != 30 {
			t.Fatalf("warm Dist = %v, want 30", d)
		}
		id := g.AddNode("new", 0, 0)
		g.MustAddEdge(id, 0, 1)
		// The resized cache must cover the new node without panicking.
		if d := lru.Dist(0, id); d != 1 {
			t.Errorf("post-AddNode Dist(0,%d) = %v, want 1", id, d)
		}
		if got, want := lru.MaxDist(), g.ShortestPathsLatency().MaxDist(); got != want {
			t.Errorf("post-AddNode MaxDist = %v, want %v", got, want)
		}
	})
}

// TestLRUWarmDeterministic warms the same source set at several worker
// widths and checks the cache answers and counters agree, and that
// warming past capacity evicts like queries would.
func TestLRUWarmDeterministic(t *testing.T) {
	g, err := RandomConnected(40, 90, 1, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	dense := g.ShortestPathsLatency()
	sources := make([]NodeID, g.N())
	for i := range sources {
		sources[i] = NodeID(i)
	}
	for _, workers := range []int{1, 3, 8} {
		lru := NewLRUPaths(g, 0)
		lru.Warm(sources, workers)
		_, misses, _ := lru.Stats()
		if int(misses) != g.N() {
			t.Errorf("workers=%d: %d misses after full warm, want %d", workers, misses, g.N())
		}
		for i := 0; i < g.N(); i++ {
			if d, want := lru.Dist(NodeID(i), NodeID((i+1)%g.N())), dense.Dist(NodeID(i), NodeID((i+1)%g.N())); d != want {
				t.Fatalf("workers=%d: Dist mismatch at %d", workers, i)
			}
		}
		hits, _, _ := lru.Stats()
		if int(hits) != g.N() {
			t.Errorf("workers=%d: %d hits after warmed queries, want %d", workers, hits, g.N())
		}
	}
	// Warming past capacity must evict, not grow.
	small := NewLRUPaths(g, 5)
	small.Warm(sources, 4)
	if _, _, evictions := small.Stats(); evictions == 0 {
		t.Error("warming 40 sources into capacity 5 should evict")
	}
}

// TestLRUPathTree checks the single-tree path variant returns a valid
// shortest path: same endpoints, consecutive edges exist, and the
// walked latency equals the exact distance.
func TestLRUPathTree(t *testing.T) {
	g, err := Waxman("wax-pt", 40, 100, 3000, 0.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	dense := g.ShortestPathsLatency()
	lru := NewLRUPaths(g, 0)
	for i := 0; i < g.N(); i++ {
		for j := 0; j < g.N(); j++ {
			p, err := lru.PathTree(NodeID(i), NodeID(j))
			if err != nil {
				t.Fatalf("PathTree(%d,%d): %v", i, j, err)
			}
			if p[0] != NodeID(i) || p[len(p)-1] != NodeID(j) {
				t.Fatalf("PathTree(%d,%d) endpoints %v", i, j, p)
			}
			var sum float64
			for k := 1; k < len(p); k++ {
				lat, err := g.EdgeLatency(p[k-1], p[k])
				if err != nil {
					t.Fatalf("PathTree(%d,%d) uses missing edge %d-%d", i, j, p[k-1], p[k])
				}
				sum += lat
			}
			if want := dense.Dist(NodeID(i), NodeID(j)); math.Abs(sum-want) > 1e-9 {
				t.Fatalf("PathTree(%d,%d) latency %v, want %v", i, j, sum, want)
			}
		}
	}
}

func TestHierarchical(t *testing.T) {
	levels := []HierLevel{
		{Fanout: 8, MeanLatency: 20, Redundancy: 1},
		{Fanout: 4, MeanLatency: 5, Redundancy: 1},
		{Fanout: 3, MeanLatency: 1},
	}
	want := 8 + 8*4 + 8*4*3
	if got := HierNodeCount(levels); got != want {
		t.Fatalf("HierNodeCount = %d, want %d", got, want)
	}
	g, err := Hierarchical("h", levels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != want {
		t.Errorf("N = %d, want %d", g.N(), want)
	}
	if !g.Connected() {
		t.Error("hierarchical graph must be connected")
	}
	if g.DiameterEstimate() <= 0 {
		t.Error("diameter estimate should be positive")
	}

	// Determinism: same spec + seed => identical graph, edge for edge.
	g2, err := Hierarchical("h", levels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.EdgeList(), g2.EdgeList()) {
		t.Error("same seed produced different edge lists")
	}
	if !reflect.DeepEqual(g.Nodes(), g2.Nodes()) {
		t.Error("same seed produced different node lists")
	}
	g3, err := Hierarchical("h", levels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g.EdgeList(), g3.EdgeList()) {
		t.Error("different seeds produced identical edge lists")
	}
}

func TestHierarchicalValidation(t *testing.T) {
	cases := []struct {
		name   string
		levels []HierLevel
	}{
		{"empty", nil},
		{"zero fanout", []HierLevel{{Fanout: 0, MeanLatency: 1}}},
		{"bad latency", []HierLevel{{Fanout: 3, MeanLatency: 0}}},
		{"negative redundancy", []HierLevel{{Fanout: 3, MeanLatency: 1, Redundancy: -1}}},
		{"single node", []HierLevel{{Fanout: 1, MeanLatency: 1}}},
		{"too big", []HierLevel{{Fanout: 2048, MeanLatency: 1}, {Fanout: 2048, MeanLatency: 1}}},
	}
	for _, tc := range cases {
		if _, err := Hierarchical("x", tc.levels, 1); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestParseHierSpec(t *testing.T) {
	levels, err := ParseHierSpec("8x16x25", "20,5,1", "0,1,1")
	if err != nil {
		t.Fatal(err)
	}
	want := []HierLevel{
		{Fanout: 8, MeanLatency: 20, Redundancy: 0},
		{Fanout: 16, MeanLatency: 5, Redundancy: 1},
		{Fanout: 25, MeanLatency: 1, Redundancy: 1},
	}
	if !reflect.DeepEqual(levels, want) {
		t.Errorf("ParseHierSpec = %+v, want %+v", levels, want)
	}
	// Broadcast forms: one latency / one redundancy for all levels.
	levels, err = ParseHierSpec("4,4", "10", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range levels {
		if lv.MeanLatency != 10 || lv.Redundancy != 2 {
			t.Errorf("broadcast parse = %+v", levels)
		}
	}
	for _, bad := range [][3]string{
		{"", "1", ""},
		{"4x4", "", ""},
		{"4x4", "1,2,3", ""},
		{"4x4", "1", "1,2,3"},
		{"axb", "1", ""},
		{"4x4", "x", ""},
		{"4x4", "1", "y"},
	} {
		if _, err := ParseHierSpec(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("ParseHierSpec(%q,%q,%q) should fail", bad[0], bad[1], bad[2])
		}
	}
}

// FuzzHierarchical fuzzes the determinism contract: any valid spec and
// seed must expand to the identical graph twice.
func FuzzHierarchical(f *testing.F) {
	f.Add(uint8(5), uint8(4), uint8(1), int64(1))
	f.Add(uint8(8), uint8(3), uint8(2), int64(99))
	f.Add(uint8(2), uint8(1), uint8(0), int64(-7))
	f.Fuzz(func(t *testing.T, f0, f1, red uint8, seed int64) {
		levels := []HierLevel{
			{Fanout: int(f0%12) + 2, MeanLatency: 10, Redundancy: int(red % 3)},
			{Fanout: int(f1%6) + 1, MeanLatency: 2, Redundancy: int(red % 2)},
		}
		a, err := Hierarchical("fz", levels, seed)
		if err != nil {
			t.Fatalf("valid spec rejected: %v", err)
		}
		b, err := Hierarchical("fz", levels, seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.N() != b.N() || !reflect.DeepEqual(a.EdgeList(), b.EdgeList()) {
			t.Fatal("same seed produced different graphs")
		}
		if !a.Connected() {
			t.Fatal("hierarchical graph must be connected")
		}
	})
}
