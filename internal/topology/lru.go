package topology

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ccncoord/internal/par"
)

// LRUPaths answers shortest-path queries from a bounded cache of
// per-source shortest-path trees, computed on demand by the same
// Dijkstra kernel the dense APSP uses. One tree holds source src's full
// distance, first-hop and predecessor rows (24·n bytes), so the whole
// backend costs 24·n·capacity bytes instead of the dense matrix's 24·n²
// — the backend that unlocks 10⁵-router topologies, where one dense
// matrix would need ~240 GiB.
//
// Exactness: a cached tree is produced by Graph.dijkstraRows with the
// identical adjacency iteration order as a dense APSP row, so Dist and
// Next are bit-identical to the dense backend on any graph — ties
// included.
//
// Invalidation: every query stamps itself against the graph's mutation
// generation; any Graph mutator bumps the generation (see Graph.bump),
// so the first query after a mutation drops every cached tree and
// recomputes against the new structure — the same contract as the dense
// APSP cache.
//
// Concurrency: the cached trees are published in a per-source slot
// array, so a hit — in Dist, Next or PathTree — is one atomic load
// plus one atomic hit count, with no lock. The generation stamp and
// the slots sit in one atomically swapped state, so a flush is
// race-free. A miss runs its Dijkstra under a mutex into freshly
// allocated rows, never into an evicted tree's: a concurrent reader
// may still hold the evicted tree, so published rows are never
// rewritten. Eviction is CLOCK: a tree hit since the hand last passed
// it gets a second chance. Mutating the underlying Graph still
// requires external synchronization, exactly as with the dense cache.
type LRUPaths struct {
	g   *Graph
	cap int

	// state is the published cache; readers load it without mu.
	state atomic.Pointer[lruState]
	// lateHits counts hits that landed on a tree after its eviction (the
	// reader loaded it just before), so Stats stays exact.
	lateHits atomic.Uint64

	mu      sync.Mutex // guards every field below
	clock   []*lruTree // resident trees in CLOCK order
	hand    int        // next CLOCK position to examine
	scratch *spScratch

	// retiredHits sums the hit counts of evicted and flushed trees.
	retiredHits, misses, evictions uint64

	// Cached weighted diameter (MaxDist sweep), valid until the next
	// flush.
	maxValid bool
	maxDist  float64
}

// lruState is one graph generation's published cache: slots[src] is
// src's resident tree, or nil.
type lruState struct {
	gen   uint64
	slots []atomic.Pointer[lruTree]
}

func newLRUState(gen uint64, n int) *lruState {
	return &lruState{gen: gen, slots: make([]atomic.Pointer[lruTree], n)}
}

// lruTree is one cached single-source shortest-path tree. Its rows are
// never written once the tree is published.
type lruTree struct {
	src    NodeID
	dist   []float64
	next   []NodeID
	parent []NodeID
	// hits counts the queries this tree answered. Eviction swaps in
	// retiredBit, so a hit landing afterwards shows the bit and is
	// counted in lateHits instead.
	hits atomic.Uint64
	// seen is hits as the CLOCK hand last read it (guarded by mu): a
	// tree whose count moved since was referenced.
	seen uint64
}

// retiredBit marks an evicted tree's hit counter.
const retiredBit = 1 << 63

func newLRUTree(src NodeID, n int) *lruTree {
	return &lruTree{
		src:    src,
		dist:   make([]float64, n),
		next:   make([]NodeID, n),
		parent: make([]NodeID, n),
	}
}

// DefaultLRUBudgetBytes is the tree-cache memory budget when
// NewLRUPaths is given a non-positive capacity: the capacity becomes
// budget / (24·n) trees, clamped to [minLRUCapacity, n]. The lower
// clamp wins past ~700k nodes, where the cache then exceeds the budget:
// at 2²¹ nodes its 16 trees take ≈805 MB.
const DefaultLRUBudgetBytes = 256 << 20

// minLRUCapacity keeps a degenerate budget from thrashing on every
// query.
const minLRUCapacity = 16

// treeBytes is the memory footprint of one cached tree for an n-node
// graph: one float64 plus two NodeID entries per node.
func treeBytes(n int) int { return n * 24 }

// LRUCapacityForBudget returns how many shortest-path trees of an
// n-node graph fit in budgetBytes, clamped to [minLRUCapacity, n].
func LRUCapacityForBudget(n, budgetBytes int) int {
	c := budgetBytes / treeBytes(max(n, 1))
	if c < minLRUCapacity {
		c = minLRUCapacity
	}
	if c > n {
		c = n
	}
	if c < 1 {
		c = 1
	}
	return c
}

// NewLRUPaths builds the LRU backend over g's latency metric with room
// for capacity cached trees; non-positive capacity selects
// LRUCapacityForBudget(n, DefaultLRUBudgetBytes).
func NewLRUPaths(g *Graph, capacity int) *LRUPaths {
	n := g.N()
	if capacity <= 0 {
		capacity = LRUCapacityForBudget(n, DefaultLRUBudgetBytes)
	}
	if capacity > n && n > 0 {
		capacity = n
	}
	l := &LRUPaths{
		g:       g,
		cap:     capacity,
		scratch: newSPScratch(n, g.edges),
	}
	l.state.Store(newLRUState(g.gen, n))
	return l
}

// N returns the number of nodes covered.
func (l *LRUPaths) N() int { return l.g.N() }

// Capacity returns the maximum number of cached trees.
func (l *LRUPaths) Capacity() int { return l.cap }

// Stats returns the cumulative query-cache counters: tree hits, misses
// (each miss is one Dijkstra; Warm's fills count too), and evictions.
// The counts are exact once concurrent queries have returned.
func (l *LRUPaths) Stats() (hits, misses, evictions uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	hits = l.retiredHits + l.lateHits.Load()
	for _, t := range l.clock {
		hits += t.hits.Load()
	}
	return hits, l.misses, l.evictions
}

// tree returns src's shortest-path tree: lock-free when the current
// generation has it published, else through the locked miss path.
func (l *LRUPaths) tree(src NodeID) *lruTree {
	if st := l.state.Load(); st.gen == l.g.gen {
		if t := st.slots[src].Load(); t != nil {
			t.hit(l)
			return t
		}
	}
	return l.miss(src)
}

// hit counts one query answered by t.
func (t *lruTree) hit(l *LRUPaths) {
	if t.hits.Add(1)&retiredBit != 0 {
		l.lateHits.Add(1)
	}
}

// miss computes and publishes src's tree. A concurrent query that
// filled it first turns this one into a hit.
func (l *LRUPaths) miss(src NodeID) *lruTree {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.currentLocked()
	if t := st.slots[src].Load(); t != nil {
		t.hit(l)
		return t
	}
	l.misses++
	t := newLRUTree(src, l.g.N())
	l.g.dijkstraRows(src, false, l.scratch, t.dist, t.next, t.parent)
	l.insertLocked(st, t)
	return t
}

// currentLocked returns the published state, first dropping every
// cached tree if the graph mutated since it was published; the node
// count may have changed, so the state and scratch are reallocated.
func (l *LRUPaths) currentLocked() *lruState {
	st := l.state.Load()
	if st.gen == l.g.gen {
		return st
	}
	n := l.g.N()
	for _, t := range l.clock {
		l.retiredHits += t.hits.Swap(retiredBit)
	}
	clear(l.clock)
	l.clock, l.hand = l.clock[:0], 0
	l.scratch = newSPScratch(n, l.g.edges)
	l.maxValid = false
	if l.cap > n && n > 0 {
		l.cap = n
	}
	st = newLRUState(l.g.gen, n)
	l.state.Store(st)
	return st
}

// insertLocked publishes t, first evicting one tree when the cache is
// full.
func (l *LRUPaths) insertLocked(st *lruState, t *lruTree) {
	if len(l.clock) < l.cap {
		l.clock = append(l.clock, t)
	} else {
		i := l.victimLocked()
		old := l.clock[i]
		st.slots[old.src].Store(nil)
		l.retiredHits += old.hits.Swap(retiredBit)
		l.evictions++
		l.clock[i] = t
	}
	st.slots[t.src].Store(t)
}

// victimLocked moves the CLOCK hand past trees hit since its last pass
// and returns the position of the first one that was not — or, when
// every tree was hit, of the one the hand started at.
func (l *LRUPaths) victimLocked() int {
	for range l.clock {
		t := l.clock[l.hand]
		h := t.hits.Load()
		if h == t.seen {
			break
		}
		t.seen = h
		l.hand = (l.hand + 1) % len(l.clock)
	}
	i := l.hand
	l.hand = (l.hand + 1) % len(l.clock)
	return i
}

// Dist returns the shortest-path length from i to j, bit-identical to
// the dense backend.
func (l *LRUPaths) Dist(i, j NodeID) float64 { return l.tree(i).dist[j] }

// Next returns the first hop out of i on a shortest path toward j, or
// -1 when i == j or j is unreachable; bit-identical to the dense
// backend.
func (l *LRUPaths) Next(i, j NodeID) NodeID { return l.tree(i).next[j] }

// PathTree returns a shortest path from src to dst read entirely out of
// src's own tree (the predecessor chain), touching exactly one cached
// tree — the query shape the LRU is sized for. The result is a valid
// shortest path of the same length as APSP.Path's; under exact
// equal-cost ties the node sequence may differ from the dense walk.
func (l *LRUPaths) PathTree(src, dst NodeID) ([]NodeID, error) {
	n := l.g.N()
	if int(src) >= n || int(dst) >= n || src < 0 || dst < 0 {
		return nil, fmt.Errorf("topology: path endpoints (%d,%d) out of range", src, dst)
	}
	if src == dst {
		return []NodeID{src}, nil
	}
	t := l.tree(src)
	// Walk predecessors dst -> src, then reverse in place.
	path := []NodeID{dst}
	cur := dst
	for cur != src {
		p := t.parent[cur]
		if p < 0 {
			return nil, fmt.Errorf("topology: %d unreachable from %d", dst, src)
		}
		path = append(path, p)
		cur = p
		if len(path) > n+1 {
			return nil, fmt.Errorf("topology: predecessor chain contains a loop between %d and %d", src, dst)
		}
	}
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	return path, nil
}

// fillLocked visits the trees of srcs in order, passing each to visit
// (when non-nil). Resident trees are visited as they are; missing ones
// are computed over a pool of the given width (non-positive selects
// the default) and visited in source order, so nothing a visit or the
// cache sees depends on the width. With evict set, every computed tree
// joins the cache, evicting as queries would; otherwise computed trees
// join only while free slots remain, and the rest — computed a chunk
// at a time into reused rows, which bounds their memory — are dropped
// after their visit. It returns how many trees joined.
func (l *LRUPaths) fillLocked(st *lruState, srcs []NodeID, workers int, evict bool, visit func(*lruTree)) int {
	n := l.g.N()
	if workers <= 0 {
		workers = par.DefaultWorkers()
		if n < parallelAPSPSources {
			workers = 1
		}
	}
	scratch := make(chan *spScratch, workers)
	for range workers {
		scratch <- newSPScratch(n, l.g.edges)
	}
	trees := make([]*lruTree, len(srcs))
	var joining []*lruTree
	free := l.cap - len(l.clock)
	for k, src := range srcs {
		if t := st.slots[src].Load(); t != nil {
			trees[k] = t
		} else if evict || free > 0 {
			free--
			trees[k] = newLRUTree(src, n)
			joining = append(joining, trees[k])
		}
	}
	l.computeTrees(joining, scratch)
	for _, t := range joining {
		l.insertLocked(st, t)
	}
	if visit == nil {
		return len(joining)
	}
	chunk := 4 * workers
	var spare []*lruTree // rows of dropped trees, reused by later chunks
	for lo := 0; lo < len(srcs); lo += chunk {
		hi := min(lo+chunk, len(srcs))
		var dropped []*lruTree
		for k := lo; k < hi; k++ {
			if trees[k] != nil {
				continue
			}
			if len(spare) > 0 {
				trees[k], spare = spare[len(spare)-1], spare[:len(spare)-1]
				trees[k].src = srcs[k]
			} else {
				trees[k] = newLRUTree(srcs[k], n)
			}
			dropped = append(dropped, trees[k])
		}
		l.computeTrees(dropped, scratch)
		for _, t := range trees[lo:hi] {
			visit(t)
		}
		spare = append(spare, dropped...)
	}
	return len(joining)
}

// computeTrees runs the Dijkstras of todo over the worker pool, one
// scratch from the given set per running task; the pool is as wide as
// the set.
func (l *LRUPaths) computeTrees(todo []*lruTree, scratch chan *spScratch) {
	_ = par.ForEach(cap(scratch), len(todo), func(k int) error {
		s := <-scratch
		t := todo[k]
		l.g.dijkstraRows(t.src, false, s, t.dist, t.next, t.parent)
		scratch <- s
		return nil
	})
}

// Warm precomputes the trees of the given sources, fanning the
// Dijkstras over the worker pool (non-positive workers selects the
// default width) and inserting the results in input order, so a warmed
// cache is deterministic regardless of worker count. Sources beyond the
// cache capacity evict earlier ones, exactly as queries would; each
// fill counts as a miss, since it ran one Dijkstra.
func (l *LRUPaths) Warm(sources []NodeID, workers int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.currentLocked()
	n := l.g.N()
	missing := make([]NodeID, 0, len(sources))
	seen := make(map[NodeID]bool, len(sources))
	for _, s := range sources {
		if s < 0 || int(s) >= n || seen[s] || st.slots[s].Load() != nil {
			continue
		}
		seen[s] = true
		missing = append(missing, s)
	}
	l.misses += uint64(l.fillLocked(st, missing, workers, true, nil))
}

// sweep returns the largest finite off-diagonal distance, computing it
// once per graph generation with one Dijkstra per uncached source over
// a pool of the given width (see fillLocked). The computed trees fill
// the cache while it has free slots, so with capacity ≥ n a sweep
// leaves every tree resident. A max does not depend on scan order, so
// the result is bit-identical to the dense backend's at any width.
func (l *LRUPaths) sweep(workers int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.currentLocked()
	if !l.maxValid {
		srcs := make([]NodeID, l.g.N())
		for i := range srcs {
			srcs[i] = NodeID(i)
		}
		var m float64
		l.fillLocked(st, srcs, workers, false, func(t *lruTree) {
			for j, d := range t.dist {
				if NodeID(j) != t.src && !math.IsInf(d, 1) && d > m {
					m = d
				}
			}
		})
		l.maxDist, l.maxValid = m, true
	}
	return l.maxDist
}

// MaxDist returns the largest finite off-diagonal distance (the
// weighted diameter), bit-identical to the dense backend. The first
// call per graph generation runs the parallel sweep (see sweep); the
// scalar is then cached.
func (l *LRUPaths) MaxDist() float64 { return l.sweep(0) }
