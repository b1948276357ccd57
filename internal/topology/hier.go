package topology

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// This file provides the hierarchical AS×POP topology generator that
// feeds the scalable routing backends: levels of aggregation (core
// backbone, regional ASes, POPs, access routers) expanded fanout by
// fanout into graphs of 10³–10⁵ routers, deterministically from a seed.
// The structure mirrors how internet-scale CCN deployments are
// described (a small meshed core, tiers of aggregation below it, leaves
// multi-homed for redundancy) and yields small diameters at huge node
// counts — the regime where the dense O(n²) APSP is impossible and the
// LRU backend earns its keep.

// HierLevel describes one tier of a hierarchical topology.
type HierLevel struct {
	// Fanout is the number of nodes this level creates per node of the
	// level above (for the top level: the absolute node count).
	Fanout int
	// MeanLatency is the mean one-way latency in ms of links created at
	// this level; each link draws uniformly from [0.5, 1.5)×mean.
	MeanLatency float64
	// Redundancy is the number of extra links per node beyond the
	// structural minimum: chords across the top-level ring, or
	// additional uplinks to random other parent-level nodes below
	// (multi-homing). Extra links that would duplicate an existing edge
	// are skipped, so it is a target, not a guarantee.
	Redundancy int
}

// MaxHierNodes bounds the total node count a hierarchy spec may expand
// to, protecting callers from typo'd fanouts that would OOM the process
// before any backend gets a say.
const MaxHierNodes = 1 << 21

// HierNodeCount returns the total node count the given levels expand
// to, without building anything.
func HierNodeCount(levels []HierLevel) int {
	total, width := 0, 1
	for _, lv := range levels {
		width *= lv.Fanout
		total += width
		if total > MaxHierNodes {
			return total
		}
	}
	return total
}

// Hierarchical builds a hierarchical topology from the level spec,
// deterministically from the seed: the top level is a latency-jittered
// ring (plus Redundancy random chords per node), and every lower level
// attaches Fanout children to each parent with one uplink plus
// Redundancy extra uplinks to random other parents. The same
// (levels, seed) pair always yields the same graph, edge for edge.
func Hierarchical(name string, levels []HierLevel, seed int64) (*Graph, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("topology: hierarchy needs at least one level")
	}
	for i, lv := range levels {
		if lv.Fanout < 1 {
			return nil, fmt.Errorf("topology: level %d fanout must be >= 1, got %d", i, lv.Fanout)
		}
		if !(lv.MeanLatency > 0) {
			return nil, fmt.Errorf("topology: level %d mean latency must be positive, got %v", i, lv.MeanLatency)
		}
		if lv.Redundancy < 0 {
			return nil, fmt.Errorf("topology: level %d redundancy must be >= 0, got %d", i, lv.Redundancy)
		}
	}
	total := HierNodeCount(levels)
	if total < 2 {
		return nil, fmt.Errorf("topology: hierarchy expands to %d node(s), need at least 2", total)
	}
	if total > MaxHierNodes {
		return nil, fmt.Errorf("topology: hierarchy expands to %d nodes, limit is %d", total, MaxHierNodes)
	}
	if name == "" {
		name = fmt.Sprintf("hier-%d", total)
	}
	g := New(name)
	g.grow(total)
	rng := rand.New(rand.NewSource(seed))
	jitter := func(mean float64) float64 { return mean * (0.5 + rng.Float64()) }

	// Top level: ring plus random chords.
	top := levels[0]
	prev := make([]NodeID, top.Fanout)
	for i := range prev {
		prev[i] = g.AddNode(fmt.Sprintf("L0-%d", i), 0, 0)
	}
	switch {
	case top.Fanout == 2:
		if err := g.AddEdge(prev[0], prev[1], jitter(top.MeanLatency)); err != nil {
			return nil, err
		}
	case top.Fanout >= 3:
		for i := range prev {
			if err := g.AddEdge(prev[i], prev[(i+1)%len(prev)], jitter(top.MeanLatency)); err != nil {
				return nil, err
			}
		}
	}
	if top.Fanout >= 4 && top.Redundancy > 0 {
		want := top.Fanout * top.Redundancy / 2
		for added, attempts := 0, 0; added < want && attempts < 20*want+40; attempts++ {
			a := prev[rng.Intn(len(prev))]
			b := prev[rng.Intn(len(prev))]
			if a == b || g.HasEdge(a, b) {
				continue
			}
			if err := g.AddEdge(a, b, jitter(top.MeanLatency)); err != nil {
				return nil, err
			}
			added++
		}
	}

	// Lower levels: parent uplink plus redundant uplinks to other
	// parents. Parents are visited in ID order and children appended in
	// order, so IDs and edges are reproducible.
	for li := 1; li < len(levels); li++ {
		lv := levels[li]
		cur := make([]NodeID, 0, len(prev)*lv.Fanout)
		for _, p := range prev {
			for c := 0; c < lv.Fanout; c++ {
				id := g.AddNode(fmt.Sprintf("L%d-%d", li, len(cur)), 0, 0)
				if err := g.AddEdge(id, p, jitter(lv.MeanLatency)); err != nil {
					return nil, err
				}
				for r, attempts := 0, 0; r < lv.Redundancy && len(prev) > 1 && attempts < 8*(lv.Redundancy+1); attempts++ {
					u := prev[rng.Intn(len(prev))]
					if u == p || g.HasEdge(id, u) {
						continue
					}
					if err := g.AddEdge(id, u, jitter(lv.MeanLatency)); err != nil {
						return nil, err
					}
					r++
				}
				cur = append(cur, id)
			}
		}
		prev = cur
	}
	return g, nil
}

// ParseHierSpec parses the ccntopo-style hierarchy flags into levels:
// fanouts is "x"- or ","-separated per-level fanouts ("8x16x25"); lats
// is a comma-separated per-level mean latency list (a single value
// applies to every level); reds is a comma-separated per-level
// redundancy list (empty means 0 everywhere, a single value applies to
// every level).
func ParseHierSpec(fanouts, lats, reds string) ([]HierLevel, error) {
	fparts := strings.FieldsFunc(fanouts, func(r rune) bool { return r == 'x' || r == ',' })
	if len(fparts) == 0 {
		return nil, fmt.Errorf("topology: empty hierarchy fanout spec")
	}
	levels := make([]HierLevel, len(fparts))
	for i, p := range fparts {
		f, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("topology: bad fanout %q in hierarchy spec: %v", p, err)
		}
		levels[i].Fanout = f
	}
	lparts := strings.Split(lats, ",")
	if lats == "" {
		return nil, fmt.Errorf("topology: empty hierarchy latency spec")
	}
	if len(lparts) != 1 && len(lparts) != len(levels) {
		return nil, fmt.Errorf("topology: latency spec has %d entries, want 1 or %d", len(lparts), len(levels))
	}
	for i := range levels {
		p := lparts[0]
		if len(lparts) > 1 {
			p = lparts[i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("topology: bad latency %q in hierarchy spec: %v", p, err)
		}
		levels[i].MeanLatency = v
	}
	if reds != "" {
		rparts := strings.Split(reds, ",")
		if len(rparts) != 1 && len(rparts) != len(levels) {
			return nil, fmt.Errorf("topology: redundancy spec has %d entries, want 1 or %d", len(rparts), len(levels))
		}
		for i := range levels {
			p := rparts[0]
			if len(rparts) > 1 {
				p = rparts[i]
			}
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return nil, fmt.Errorf("topology: bad redundancy %q in hierarchy spec: %v", p, err)
			}
			levels[i].Redundancy = v
		}
	}
	return levels, nil
}

// DiameterEstimate returns a double-sweep lower bound on the weighted
// diameter in O(m log n): one Dijkstra from node 0 finds the farthest
// node u, a second from u returns its eccentricity. Exact on trees,
// and in practice tight on the hierarchical graphs; use a backend's
// MaxDist for the exact figure.
func (g *Graph) DiameterEstimate() float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	scratch := newSPScratch(n, g.edges)
	dist := make([]float64, n)
	next := make([]NodeID, n)
	parent := make([]NodeID, n)
	farthest := func(src NodeID) (NodeID, float64) {
		g.dijkstraRows(src, false, scratch, dist, next, parent)
		u, best := src, 0.0
		for v, d := range dist {
			if !math.IsInf(d, 1) && d > best {
				u, best = NodeID(v), d
			}
		}
		return u, best
	}
	u, _ := farthest(0)
	_, ecc := farthest(u)
	return ecc
}
