package topology

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRUCapacityForBudget pins the default cache sizing the README's
// memory table quotes: budget / (24·n) trees, capped at n, and never
// fewer than minLRUCapacity even when that overruns the budget.
func TestLRUCapacityForBudget(t *testing.T) {
	cases := []struct {
		n, trees int
		bytes    int // trees × treeBytes(n)
	}{
		{100, 100, 240_000},
		{1000, 1000, 24_000_000},
		{10_000, 1118, 268_320_000},
		{100_000, 111, 266_400_000},
		{1 << 21, minLRUCapacity, 805_306_368}, // clamped: above the budget
	}
	for _, tc := range cases {
		got := LRUCapacityForBudget(tc.n, DefaultLRUBudgetBytes)
		if got != tc.trees {
			t.Errorf("n=%d: %d trees, want %d", tc.n, got, tc.trees)
		}
		if b := got * treeBytes(tc.n); b != tc.bytes {
			t.Errorf("n=%d: %d trees take %d B, want %d", tc.n, got, b, tc.bytes)
		}
	}
}

// TestLRUConcurrentReaders races lock-free hits against misses,
// evictions and a diameter sweep: six readers query a capacity-4 cache
// (so nearly every miss evicts a tree another reader may still hold)
// while a seventh goroutine runs MaxDist. Every answer must equal the
// dense APSP's, and once all queries return, hits + misses must equal
// the number of single-tree queries issued.
func TestLRUConcurrentReaders(t *testing.T) {
	g, err := RandomConnected(120, 300, 1, 20, 17)
	if err != nil {
		t.Fatal(err)
	}
	dense := g.ShortestPathsLatency()
	lru := NewLRUPaths(g, 4)
	n := g.N()
	const readers, queries = 6, 3000
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < queries; q++ {
				i, j := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
				switch q % 3 {
				case 0:
					if got, want := lru.Next(i, j), dense.Next(i, j); got != want {
						t.Errorf("Next(%d,%d) = %d, dense %d", i, j, got, want)
						return
					}
				case 1:
					if got, want := lru.Dist(i, j), dense.Dist(i, j); got != want {
						t.Errorf("Dist(%d,%d) = %v, dense %v", i, j, got, want)
						return
					}
				case 2:
					p, err := lru.PathTree(i, j)
					if err != nil {
						t.Errorf("PathTree(%d,%d): %v", i, j, err)
						return
					}
					// Summed from the source, the path's latency repeats
					// the Dijkstra relaxations bit for bit.
					var sum float64
					for k := 1; k < len(p); k++ {
						lat, err := g.EdgeLatency(p[k-1], p[k])
						if err != nil {
							t.Errorf("PathTree(%d,%d) uses missing edge %d-%d", i, j, p[k-1], p[k])
							return
						}
						sum += lat
					}
					if want := dense.Dist(i, j); p[0] != i || p[len(p)-1] != j || sum != want {
						t.Errorf("PathTree(%d,%d) = %v of latency %v, want endpoints and latency %v", i, j, p, sum, want)
						return
					}
					if i == j {
						continue // answered without touching a tree
					}
				}
				issued.Add(1)
			}
		}(int64(r + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if got, want := lru.MaxDist(), dense.MaxDist(); got != want {
			t.Errorf("MaxDist = %v, dense %v", got, want)
		}
	}()
	wg.Wait()
	hits, misses, evictions := lru.Stats()
	if hits+misses != issued.Load() {
		t.Errorf("hits %d + misses %d = %d, want the %d queries issued", hits, misses, hits+misses, issued.Load())
	}
	if evictions == 0 {
		t.Error("a capacity-4 cache over 120 sources should evict")
	}
}

// TestLRULateHitCounted replays the interleaving that the concurrent
// test hits only by chance: a reader loads a tree, a miss evicts it,
// and the reader's hit lands afterwards. Stats must still count it.
func TestLRULateHitCounted(t *testing.T) {
	g, err := RandomConnected(10, 20, 1, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	lru := NewLRUPaths(g, 1)
	lru.Dist(0, 1)
	held := lru.state.Load().slots[0].Load()
	lru.Dist(1, 0) // evicts tree 0
	held.hit(lru)
	if hits, misses, evictions := lru.Stats(); hits != 1 || misses != 2 || evictions != 1 {
		t.Errorf("Stats = %d hits, %d misses, %d evictions; want 1, 2, 1", hits, misses, evictions)
	}
}

// TestLRUSweepExact checks the parallel diameter sweep: MaxDist is
// bit-identical to the dense backend at every pool width and capacity,
// the sweep fills free slots without evicting, and with capacity >= n
// it leaves every tree resident — a Next pass over all
// sources afterwards runs no Dijkstra, which the sim driver relies on
// when it builds its accumulator before the run.
func TestLRUSweepExact(t *testing.T) {
	g, err := Waxman("wax-sweep", 110, 280, 3000, 0.4, 11)
	if err != nil {
		t.Fatal(err)
	}
	dense := g.ShortestPathsLatency()
	n := g.N()
	for _, capacity := range []int{4, n / 2, n} {
		for _, workers := range []int{1, 3, 8} {
			lru := NewLRUPaths(g, capacity)
			// A few cached trees first: the sweep must read them as is.
			lru.Dist(3, 7)
			lru.Dist(NodeID(n-1), 0)
			lru.sweep(workers)
			if got, want := lru.MaxDist(), dense.MaxDist(); got != want {
				t.Errorf("cap=%d workers=%d: MaxDist = %v, dense %v", capacity, workers, got, want)
			}
			_, misses, evictions := lru.Stats()
			if misses != 2 || evictions != 0 {
				t.Errorf("cap=%d workers=%d: sweep left misses=%d evictions=%d, want 2 and 0", capacity, workers, misses, evictions)
			}
			if len(lru.clock) != capacity {
				t.Errorf("cap=%d workers=%d: %d trees resident after the sweep, want %d", capacity, workers, len(lru.clock), capacity)
			}
			if capacity < n {
				continue
			}
			for i := 0; i < n; i++ {
				lru.Next(NodeID(i), NodeID((i+1)%n))
			}
			if _, after, _ := lru.Stats(); after != misses {
				t.Errorf("cap=%d workers=%d: Next pass after the sweep ran %d Dijkstras, want 0", capacity, workers, after-misses)
			}
		}
	}
}

// benchLRUNextSink prevents dead-code elimination of Next queries.
var benchLRUNextSink atomic.Int64

// BenchmarkLRUNext times the LRU backend's per-hop query on a warmed
// 1096-router 8×8×16 hierarchy (the graph of the hier-coord benchmark
// workload): every tree is resident, so each op is one cache hit, the
// shape of a data-plane forwarding step. The parallel case issues the
// same stream from GOMAXPROCS goroutines at once, as the shards of a
// sharded run do.
func BenchmarkLRUNext(b *testing.B) {
	g, err := Hierarchical("hier-8x8x16", []HierLevel{
		{Fanout: 8, MeanLatency: 20, Redundancy: 1},
		{Fanout: 8, MeanLatency: 5, Redundancy: 1},
		{Fanout: 16, MeanLatency: 1, Redundancy: 1},
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	lru := NewLRUPaths(g, 0)
	sources := make([]NodeID, n)
	for i := range sources {
		sources[i] = NodeID(i)
	}
	lru.Warm(sources, 0)
	// A fixed pseudo-random pair stream, drawn once so the timed loop
	// holds only the queries.
	const pairs = 1 << 16
	rng := rand.New(rand.NewSource(3))
	src := make([]NodeID, pairs)
	dst := make([]NodeID, pairs)
	for k := range src {
		src[k], dst[k] = NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
	}

	b.Run("serial", func(b *testing.B) {
		var sink NodeID
		for i := 0; i < b.N; i++ {
			k := i & (pairs - 1)
			sink += lru.Next(src[k], dst[k])
		}
		benchLRUNextSink.Add(int64(sink))
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			var sink NodeID
			k := rand.Intn(pairs)
			for pb.Next() {
				k = (k + 1) & (pairs - 1)
				sink += lru.Next(src[k], dst[k])
			}
			benchLRUNextSink.Add(int64(sink))
		})
	})
}
