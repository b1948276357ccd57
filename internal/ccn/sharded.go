// Sharded execution of the CCN data plane: the same router state and
// forwarding logic as a serial plane, driven by the engines of a
// des.Sharded run with each router's state owned by exactly one engine.
// A serial plane is the one-engine case: NewNetwork wraps its engine
// the same way. Every event at a router executes on its owning engine;
// cross-shard interactions (an interest forwarded to a neighbor in
// another shard, data returning across the boundary) ride network
// links, whose latency is at least the partition's cut latency — the
// coordinator's conservative lookahead — so the window protocol never
// reorders them.
package ccn

import (
	"fmt"

	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
)

// NewShardedNetwork builds a CCN data plane driven by the engines of
// sharded. shardOf maps every router to its owning engine (normally a
// topology.PartitionGraph assignment), and the coordinator's lookahead
// must be at most the partition's cut latency or cross-shard sends will
// be rejected at forwarding time.
//
// With more than one engine only deterministic-under-sharding
// configurations are accepted: no tracer (the event stream is a
// globally ordered artifact), no loss, faults, probabilistic caching
// (shared RNG), and no finite link rate (shared queueing accumulators).
// Callers needing those features run on one engine — the sim layer
// resolves such scenarios to one shard automatically.
func NewShardedNetwork(sharded *des.Sharded, shardOf []int32, g *topology.Graph, cat *catalog.Catalog, opts Options) (*Network, error) {
	if sharded == nil {
		return nil, fmt.Errorf("ccn: nil sharded engine")
	}
	if g != nil && len(shardOf) != g.N() {
		return nil, fmt.Errorf("ccn: shard map covers %d of %d routers", len(shardOf), g.N())
	}
	if sharded.Shards() > 1 {
		switch {
		case opts.Tracer != nil:
			return nil, fmt.Errorf("ccn: tracing requires serial execution (the trace stream is globally ordered)")
		case opts.LossRate > 0:
			return nil, fmt.Errorf("ccn: lossy fabrics require serial execution (shared loss RNG)")
		case opts.Faults:
			return nil, fmt.Errorf("ccn: fault-aware planes require serial execution")
		case opts.LinkRate > 0:
			return nil, fmt.Errorf("ccn: finite link rate requires serial execution (shared queueing state)")
		case opts.Mode == CacheProb:
			return nil, fmt.Errorf("ccn: probabilistic caching requires serial execution (shared admission RNG)")
		}
	}
	for r, s := range shardOf {
		if s < 0 || int(s) >= sharded.Shards() {
			return nil, fmt.Errorf("ccn: router %d mapped to shard %d, engine has %d", r, s, sharded.Shards())
		}
	}
	n, err := buildNetwork(g, cat, opts)
	if err != nil {
		return nil, err
	}
	n.engs = make([]*des.Engine, sharded.Shards())
	for i := range n.engs {
		n.engs[i] = sharded.Shard(i)
	}
	n.shardOf = shardOf
	n.tx = make([]txShard, sharded.Shards())
	return n, nil
}
