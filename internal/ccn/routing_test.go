package ccn

import (
	"strings"
	"testing"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

// TestFaultsRequireDenseRouting pins the errored fallback: a
// fault-aware plane cannot run on the LRU routing backend (incremental
// rerouting repairs a materialized matrix), and NewNetwork must say so
// instead of silently misrouting around outages.
func TestFaultsRequireDenseRouting(t *testing.T) {
	g := topology.New("g")
	for i := 0; i < 3; i++ {
		g.AddNode("", 0, 0)
	}
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	cat, err := catalog.New(10, "/t")
	if err != nil {
		t.Fatal(err)
	}
	stores := func(topology.NodeID) (cache.Store, error) { return cache.NewLRU(1) }

	_, err = NewNetwork(&des.Engine{}, g, cat, Options{
		Stores: stores, Faults: true, RetxTimeout: 100, Routing: topology.BackendLRU,
	})
	if err == nil {
		t.Fatal("Faults with the lru backend should fail")
	}
	if !strings.Contains(err.Error(), "dense routing backend") {
		t.Errorf("Faults with the lru backend: unhelpful error %v", err)
	}

	// Dense (explicit or auto-resolved on a small graph) stays fine.
	for _, b := range []topology.Backend{topology.BackendAuto, topology.BackendDense} {
		if _, err := NewNetwork(&des.Engine{}, g, cat, Options{
			Stores: stores, Faults: true, RetxTimeout: 100, Routing: b,
		}); err != nil {
			t.Errorf("Faults with %v backend: %v", b, err)
		}
	}
}

// TestSparseRoutingDataPlane runs the same request stream over the
// dense and LRU backends and checks the planes behave identically —
// the data plane only consults Next, which is bit-identical.
func TestSparseRoutingDataPlane(t *testing.T) {
	for _, b := range []topology.Backend{topology.BackendDense, topology.BackendLRU} {
		g := topology.New("line3")
		for i := 0; i < 3; i++ {
			g.AddNode("", 0, 0)
		}
		g.MustAddEdge(0, 1, 5)
		g.MustAddEdge(1, 2, 5)
		cat, err := catalog.New(100, "/t")
		if err != nil {
			t.Fatal(err)
		}
		eng := &des.Engine{}
		net, err := NewNetwork(eng, g, cat, Options{
			AccessLatency: 1,
			Routing:       b,
			Stores: func(id topology.NodeID) (cache.Store, error) {
				return cache.NewLRU(2)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := net.AttachOriginAt(0, 50); err != nil {
			t.Fatal(err)
		}
		res := runOne(t, eng, net, 2, 1)
		// R2 -> R1 -> R0 -> origin and back: 2*(1 + 5 + 5 + 50) = 122.
		if res.Latency() != 122 {
			t.Errorf("%v backend: latency %v, want 122", b, res.Latency())
		}
		if res.ServedBy != ServedOrigin {
			t.Errorf("%v backend: served by %v, want origin", b, res.ServedBy)
		}
	}
}
