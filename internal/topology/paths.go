package topology

import (
	"fmt"
	"math"
	"math/bits"

	"ccncoord/internal/par"
)

// APSP holds all-pairs shortest-path results for one metric on flat,
// stride-indexed backing arrays (row i starts at offset i*n), which
// keeps the whole matrix in three allocations and lets per-source
// solvers write disjoint rows in parallel. Dist(i, j) is the
// shortest-path length from i to j (0 on the diagonal, +Inf if
// unreachable), Next(i, j) is the first hop on a shortest path from i
// toward j (-1 on the diagonal or if unreachable), and Parent(i, j) is
// j's predecessor on that path (-1 likewise). Next matrices drive the
// packet simulator's FIB construction; Parent matrices let the
// fault-repair layer detect which shortest-path trees used a failed
// element without re-walking paths.
//
// An APSP returned by Graph.ShortestPathsLatency / ShortestPathsHops is
// a shared cache entry: treat it as immutable.
type APSP struct {
	n      int
	dist   []float64
	next   []NodeID
	parent []NodeID
}

// N returns the number of nodes the matrix covers.
func (a *APSP) N() int { return a.n }

// Dist returns the shortest-path length from i to j.
func (a *APSP) Dist(i, j NodeID) float64 { return a.dist[int(i)*a.n+int(j)] }

// Next returns the first hop out of i on a shortest path toward j, or
// -1 when i == j or j is unreachable.
func (a *APSP) Next(i, j NodeID) NodeID { return a.next[int(i)*a.n+int(j)] }

// Parent returns j's predecessor on a shortest path from i, or -1 when
// i == j or j is unreachable.
func (a *APSP) Parent(i, j NodeID) NodeID { return a.parent[int(i)*a.n+int(j)] }

// DistRow returns source i's distance row. The returned slice aliases
// the matrix backing array; callers must not modify it.
func (a *APSP) DistRow(i NodeID) []float64 {
	return a.dist[int(i)*a.n : (int(i)+1)*a.n]
}

// newAPSP allocates an uninitialized matrix for n nodes.
func newAPSP(n int) *APSP {
	return &APSP{
		n:      n,
		dist:   make([]float64, n*n),
		next:   make([]NodeID, n*n),
		parent: make([]NodeID, n*n),
	}
}

// clone returns an independent mutable copy (the fault-repair layer
// edits its copy in place while the cached original stays pristine).
func (a *APSP) clone() *APSP {
	return &APSP{
		n:      a.n,
		dist:   append([]float64(nil), a.dist...),
		next:   append([]NodeID(nil), a.next...),
		parent: append([]NodeID(nil), a.parent...),
	}
}

// copyFrom overwrites this matrix with src's contents.
func (a *APSP) copyFrom(src *APSP) {
	copy(a.dist, src.dist)
	copy(a.next, src.next)
	copy(a.parent, src.parent)
}

// ShortestPathsLatency returns all-pairs shortest paths over link
// latencies. The result is cached on the graph and invalidated by
// mutators; see Graph.ShortestPathsLatency in graph.go for the caching
// wrapper — this method computes a fresh matrix.
func (g *Graph) shortestPathsLatencyFresh() *APSP {
	return g.apsp(false)
}

// shortestPathsHopsFresh computes hop-count all-pairs shortest paths
// (unit link weights).
func (g *Graph) shortestPathsHopsFresh() *APSP {
	return g.apsp(true)
}

// parallelAPSPSources is the node count above which per-source solvers
// fan out over the worker pool. The evaluation datasets (11-36 nodes)
// stay serial — per-source work there is microseconds and scratch reuse
// beats goroutine overhead — while the network-size sweep graphs
// (hundreds of nodes) split across CPUs.
const parallelAPSPSources = 96

// apsp runs Dijkstra from every source, serially with one reused
// scratch below parallelAPSPSources, else fanned over the worker pool
// with per-worker scratch. Every source writes only its own matrix
// rows, so the result is identical at any worker count.
func (g *Graph) apsp(unitWeights bool) *APSP {
	n := len(g.nodes)
	out := newAPSP(n)
	workers := par.DefaultWorkers()
	if n < parallelAPSPSources || workers <= 1 {
		scratch := newSPScratch(n, g.edges)
		for src := 0; src < n; src++ {
			g.dijkstraInto(out, NodeID(src), unitWeights, scratch)
		}
		return out
	}
	if workers > n {
		workers = n
	}
	_ = par.ForEach(workers, workers, func(w int) error {
		scratch := newSPScratch(n, g.edges)
		for src := w; src < n; src += workers {
			g.dijkstraInto(out, NodeID(src), unitWeights, scratch)
		}
		return nil
	})
	return out
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a hand-rolled min-heap of pqItem by distance. It avoids
// container/heap, whose interface boxes every pushed item into an `any`
// and therefore allocates once per edge relaxation — a dominant
// allocation source when all-pairs shortest paths run per simulation.
type pq []pqItem

// push appends it and restores the heap invariant.
func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].dist <= h[i].dist {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the minimum-distance item.
func (q *pq) pop() pqItem {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].dist < h[smallest].dist {
			smallest = l
		}
		if r < n && h[r].dist < h[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return top
}

// spScratch is the reusable per-source working state of one Dijkstra
// run: the settled marks, the settle order (which turns the
// predecessor tree into first hops in one linear pass), and the heap,
// pre-sized so steady-state runs never grow a slice.
type spScratch struct {
	done  []bool
	order []NodeID // nodes in settle order; order[0] is the source
	heap  pq
}

// newSPScratch sizes scratch for a graph with n nodes and m undirected
// edges. The heap can hold at most one entry per successful relaxation
// (each directed edge relaxes at most once per run), so capacity
// 2m+1 eliminates pq growth entirely.
func newSPScratch(n, m int) *spScratch {
	return &spScratch{
		done:  make([]bool, n),
		order: make([]NodeID, 0, n),
		heap:  make(pq, 0, 2*m+1),
	}
}

// dijkstraInto runs Dijkstra from src and writes the distance, first-hop
// and predecessor rows of out in place.
func (g *Graph) dijkstraInto(out *APSP, src NodeID, unitWeights bool, s *spScratch) {
	n := out.n
	base := int(src) * n
	g.dijkstraRows(src, unitWeights, s,
		out.dist[base:base+n], out.next[base:base+n], out.parent[base:base+n])
}

// dijkstraRows is the single-source shortest-path kernel shared by every
// routing backend: the dense APSP writes matrix rows through it, and the
// LRU backend fills its per-source trees with it. Sharing one kernel
// (same adjacency iteration order, same heap) is what makes the LRU
// backend's per-source results bit-identical to the dense rows.
func (g *Graph) dijkstraRows(src NodeID, unitWeights bool, s *spScratch, dist []float64, next, parent []NodeID) {
	for i := range dist {
		dist[i] = math.Inf(1)
		next[i] = -1
		parent[i] = -1
	}
	done := s.done
	for i := range done {
		done[i] = false
	}
	s.order = s.order[:0]
	s.heap = s.heap[:0]

	dist[src] = 0
	s.heap.push(pqItem{node: src, dist: 0})
	for len(s.heap) > 0 {
		it := s.heap.pop()
		if done[it.node] {
			continue
		}
		done[it.node] = true
		s.order = append(s.order, it.node)
		for _, he := range g.adj[it.node] {
			w := he.latency
			if unitWeights {
				w = 1
			}
			if d := it.dist + w; d < dist[he.to] {
				dist[he.to] = d
				parent[he.to] = it.node
				s.heap.push(pqItem{node: he.to, dist: d})
			}
		}
	}
	// The settle order is monotone in distance, so every node's
	// predecessor is resolved before the node itself: one pass converts
	// the predecessor tree into first-hop-from-src pointers.
	for _, v := range s.order[1:] {
		if parent[v] == src {
			next[v] = v
		} else {
			next[v] = next[parent[v]]
		}
	}
}

// meanHopsConnected computes the mean pairwise hop count over distinct
// ordered pairs by running BFS from every source (unit weights make
// BFS and Dijkstra distances identical), reusing the caller's scratch
// so the dataset seed search allocates nothing per candidate graph. It
// reports ok=false as soon as any source fails to reach every node,
// folding the connectivity check into the same pass. Per-level depths
// are integers whose float64 sums are exact, so the mean is bit-equal
// to the Dijkstra-based MeanDist(false) regardless of summation order.
func (g *Graph) meanHopsConnected(s *bfsScratch) (mean float64, ok bool) {
	n := len(g.nodes)
	if n < 2 {
		return 0, n == 1
	}
	if n <= 64 {
		return g.meanHopsBitBFS(s)
	}
	var sum float64
	for src := 0; src < n; src++ {
		depth := s.depth
		for i := range depth {
			depth[i] = -1
		}
		queue := s.queue[:0]
		depth[src] = 0
		queue = append(queue, NodeID(src))
		reached := 1
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			dv := depth[v]
			for _, he := range g.adj[v] {
				if depth[he.to] < 0 {
					depth[he.to] = dv + 1
					queue = append(queue, he.to)
					reached++
					sum += float64(dv + 1)
				}
			}
		}
		s.queue = queue[:0]
		if reached != n {
			return 0, false
		}
	}
	return sum / float64(n*(n-1)), true
}

// meanHopsBitBFS is meanHopsConnected for graphs of at most 64 nodes:
// frontiers are uint64 bitmasks, so one BFS level is a handful of
// mask-ors and popcounts instead of a queue walk.
func (g *Graph) meanHopsBitBFS(s *bfsScratch) (mean float64, ok bool) {
	n := len(g.nodes)
	masks := s.masks[:n]
	for a, hes := range g.adj {
		var m uint64
		for _, he := range hes {
			m |= 1 << uint(he.to)
		}
		masks[a] = m
	}
	full := ^uint64(0) >> (64 - uint(n))
	total := 0
	for src := 0; src < n; src++ {
		visited := uint64(1) << uint(src)
		frontier := visited
		depth := 0
		for {
			var next uint64
			for f := frontier; f != 0; f &= f - 1 {
				next |= masks[bits.TrailingZeros64(f)]
			}
			next &^= visited
			if next == 0 {
				break
			}
			depth++
			visited |= next
			total += depth * bits.OnesCount64(next)
			frontier = next
		}
		if visited != full {
			return 0, false
		}
	}
	return float64(total) / float64(n*(n-1)), true
}

// bfsScratch is the reusable working state of meanHopsConnected.
type bfsScratch struct {
	depth []int
	queue []NodeID
	masks []uint64
}

// newBFSScratch sizes scratch for graphs of up to n nodes.
func newBFSScratch(n int) *bfsScratch {
	m := n
	if m > 64 {
		m = 64
	}
	return &bfsScratch{
		depth: make([]int, n),
		queue: make([]NodeID, 0, n),
		masks: make([]uint64, m),
	}
}

// Path returns the node sequence from src to dst (inclusive) following
// the APSP first-hop matrix, or an error if dst is unreachable.
func (a *APSP) Path(src, dst NodeID) ([]NodeID, error) {
	if src == dst {
		if int(src) >= a.n || src < 0 {
			return nil, fmt.Errorf("topology: path endpoints (%d,%d) out of range", src, dst)
		}
		return []NodeID{src}, nil
	}
	if int(src) >= a.n || int(dst) >= a.n || src < 0 || dst < 0 {
		return nil, fmt.Errorf("topology: path endpoints (%d,%d) out of range", src, dst)
	}
	path := []NodeID{src}
	cur := src
	for cur != dst {
		nxt := a.Next(cur, dst)
		if nxt < 0 {
			return nil, fmt.Errorf("topology: %d unreachable from %d", dst, src)
		}
		path = append(path, nxt)
		cur = nxt
		if len(path) > a.n+1 {
			return nil, fmt.Errorf("topology: first-hop matrix contains a loop between %d and %d", src, dst)
		}
	}
	return path, nil
}

// MaxDist returns the largest finite off-diagonal distance (the weighted
// diameter). It returns 0 for graphs with fewer than two nodes.
func (a *APSP) MaxDist() float64 {
	var m float64
	n := a.n
	for i := 0; i < n; i++ {
		row := a.dist[i*n : (i+1)*n]
		for j, d := range row {
			if i != j && !math.IsInf(d, 1) && d > m {
				m = d
			}
		}
	}
	return m
}

// MeanDist returns the mean off-diagonal pairwise distance. With
// includeDiagonal true it divides by |V|^2 (the paper's Section V-A
// convention); otherwise by |V|*(|V|-1).
func (a *APSP) MeanDist(includeDiagonal bool) float64 {
	n := a.n
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		row := a.dist[i*n : (i+1)*n]
		for j, d := range row {
			if i != j && !math.IsInf(d, 1) {
				sum += d
			}
		}
	}
	if includeDiagonal {
		return sum / float64(n*n)
	}
	return sum / float64(n*(n-1))
}
