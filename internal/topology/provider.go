package topology

import "fmt"

// PathProvider is the routing-backend interface behind which the data
// plane and the experiment harness query shortest paths. The dense
// all-pairs matrix (*APSP) satisfies it exactly as before; the sparse
// backends (LRUPaths, LandmarkPaths) trade precompute and memory for
// scale:
//
//	backend    memory    precompute        Dist/Next         exact?
//	dense      24·n² B   n Dijkstras       O(1)              yes
//	lru        24·n·k B  per-miss Dijkstra O(1) lock-free hit / O(m log n) locked miss, k cached trees
//	landmark   24·n·k B  k Dijkstras       O(k)              upper bound
//
// Dist returns the shortest-path length from i to j (0 on the diagonal,
// +Inf if unreachable); Next the first hop out of i toward j (-1 on the
// diagonal or if unreachable); Path the full node sequence; MaxDist the
// weighted diameter and MeanDist the mean pairwise distance (see each
// backend for its exactness contract on the last two).
type PathProvider interface {
	N() int
	Dist(i, j NodeID) float64
	Next(i, j NodeID) NodeID
	Path(src, dst NodeID) ([]NodeID, error)
	MaxDist() float64
	MeanDist(includeDiagonal bool) float64
}

// Backend selects a routing backend implementation.
type Backend int

const (
	// BackendAuto picks BackendDense below DenseAutoThreshold nodes and
	// BackendLRU at or above it — small calibrated datasets keep the
	// byte-identical dense fast path, large generated graphs never
	// materialize an O(n²) matrix.
	BackendAuto Backend = iota
	// BackendDense is the flat all-pairs matrix of PR 3: 24·n² bytes,
	// exact, O(1) queries, required for DynAPSP fault rerouting.
	BackendDense
	// BackendLRU answers from an LRU of per-source shortest-path trees,
	// each filled by one on-demand Dijkstra: O(n·cap) memory, exact, and
	// bit-identical to the dense rows (see LRUPaths).
	BackendLRU
	// BackendLandmark answers approximate distances via k landmark
	// trees: O(n·k) memory, O(k) per query, upper-bound estimates (see
	// LandmarkPaths).
	BackendLandmark
)

// DenseAutoThreshold is the node count at which BackendAuto switches
// from the dense matrix to the LRU backend. At 1024 nodes the dense
// matrix costs 24 MiB and one full APSP precompute; past it the
// quadratic wall dominates (10⁴ nodes ≈ 2.4 GiB, 10⁵ ≈ 240 GiB).
const DenseAutoThreshold = 1024

// String returns the backend's flag name.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendDense:
		return "dense"
	case BackendLRU:
		return "lru"
	case BackendLandmark:
		return "landmark"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend resolves a -routing flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case "dense", "apsp":
		return BackendDense, nil
	case "lru":
		return BackendLRU, nil
	case "landmark":
		return BackendLandmark, nil
	default:
		return 0, fmt.Errorf("topology: unknown routing backend %q (want auto, dense, lru, or landmark)", s)
	}
}

// Resolve maps BackendAuto to the concrete backend chosen for an n-node
// graph; concrete backends return themselves.
func (b Backend) Resolve(n int) Backend {
	if b != BackendAuto {
		return b
	}
	if n < DenseAutoThreshold {
		return BackendDense
	}
	return BackendLRU
}

// NewPathProvider builds the selected routing backend over g's latency
// metric. BackendDense returns the graph's shared cached APSP (computing
// it on first use); the sparse backends use default sizing — build
// LRUPaths/LandmarkPaths directly to tune capacity or landmark count.
func NewPathProvider(g *Graph, b Backend) (PathProvider, error) {
	switch b.Resolve(g.N()) {
	case BackendDense:
		return g.ShortestPathsLatency(), nil
	case BackendLRU:
		return NewLRUPaths(g, 0), nil
	case BackendLandmark:
		return NewLandmarkPaths(g, 0), nil
	default:
		return nil, fmt.Errorf("topology: unknown routing backend %d", int(b))
	}
}
