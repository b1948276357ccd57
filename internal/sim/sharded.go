// Shard resolution and the multi-shard terms of the run driver. A
// scenario resolving to several shards runs the same driver as a serial
// one (see run) on the conservative parallel engine: the topology is
// partitioned deterministically (topology.PartitionGraph), each
// region's routers live on one engine, and the minimum latency over cut
// edges is the coordinator's lookahead — no cross-shard packet can
// arrive sooner, so engines safely run ahead of each other by one
// window.
//
// Determinism is preserved end to end: request identities are dealt in
// global arrival-time order before the run (assignRequestIDs; a single
// engine's counter allocates them in exactly that order), each shard
// records its completions into a private buffer, and the buffers are
// merged in (completion-time, request-ID) order after the run
// (mergeCompletions) before the one accumulator folds them in. That is
// the order a single engine fires completion callbacks in, save exact
// completion-time ties between routers (see mergeCompletions), so a
// scenario produces an identical Result at every width above one — and,
// where no such ties occur, the serial run's Result too.
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"

	"ccncoord/internal/ccn"
	"ccncoord/internal/topology"
)

// maxAutoShards caps automatic shard selection: beyond ~8 shards the
// window-barrier cost grows faster than the per-shard work shrinks on
// the topology sizes the auto rule targets.
const maxAutoShards = 8

// ResolveShardsReason decides how many event-loop shards the scenario
// runs on, and reports why an explicitly requested multi-shard run
// (Shards >= 2) was downgraded to one engine. An explicit Shards >= 2 is
// honored — clamped to the router count — unless the scenario is not
// shardable (see shardBlockers). Shards == 1 forces one engine.
// Shards == 0 picks automatically: serial below
// topology.DenseAutoThreshold routers — keeping every calibrated-dataset
// artifact on the exact code path that produced it — and
// min(maxAutoShards, GOMAXPROCS) above it.
//
// The reason is empty whenever no downgrade happened: the request was
// honored, the caller asked for serial, or the automatic rule
// (Shards == 0) chose serial — auto picking serial is policy, not a
// fallback.
func ResolveShardsReason(sc Scenario) (parts int, fallback string) {
	n := sc.Topology.N()
	p := sc.Shards
	explicit := p >= 2
	if p == 0 {
		if n < topology.DenseAutoThreshold {
			return 1, ""
		}
		p = runtime.GOMAXPROCS(0)
		if p > maxAutoShards {
			p = maxAutoShards
		}
	}
	if p < 2 {
		return 1, ""
	}
	if blockers := shardBlockers(sc); len(blockers) > 0 {
		if explicit {
			return 1, "scenario not shardable: " + strings.Join(blockers, ", ")
		}
		return 1, ""
	}
	if p > n {
		p = n
	}
	return p, ""
}

// shardBlockers lists the scenario features that keep it off the
// sharded engine. Features that funnel every event through one piece of
// globally ordered shared state — fault and chaos timelines, the loss
// and probabilistic-admission RNGs, link-queueing accumulators, the
// trace stream, and workload factories with unknown internal sharing —
// run serially instead. An empty list means the scenario is shardable.
func shardBlockers(sc Scenario) []string {
	var b []string
	if sc.faultsEnabled() {
		b = append(b, "fault injection")
	}
	if sc.LossRate != 0 {
		b = append(b, "loss process")
	}
	if sc.LinkRate != 0 {
		b = append(b, "link queueing")
	}
	if sc.Tracer != nil {
		b = append(b, "event tracing")
	}
	if sc.Policy == PolicyProbCache {
		b = append(b, "probabilistic caching")
	}
	if sc.WorkloadFactory != nil {
		b = append(b, "custom workload factory")
	}
	return b
}

// mergeCompletions passes the per-shard completion buffers to visit in
// (CompletedAt, Req) order. Request IDs are unique, so the key is a
// total order and the fold is the same at every shard count. Each
// buffer is already in CompletedAt order — its engine fired the
// completions in time order — so once each run of equal completion
// times is ordered by request ID, a k-way merge of the buffers yields
// exactly what a full sort would, in linear time for the few buffers
// (one per shard) a run has. A buffer out of CompletedAt order would
// silently change the fold, so mergeCompletions panics on one.
//
// The key matches a single engine's callback order except at exact
// ties between routers. Simultaneous completions at one router come
// from aggregated client faces, which one engine fires in face order:
// ascending request ID. But two routers, even on one shard, can also
// complete at the same float time — on integer-latency graphs one
// upstream Data packet reaching both over equal-latency paths does it
// — and one engine fires those in scheduling order, which need not be
// ascending ID. On such graphs a sharded run's running means can
// differ from the serial run's in the last bits.
func mergeCompletions(bufs [][]ccn.RequestResult, visit func(ccn.RequestResult)) {
	total := 0
	for s, b := range bufs {
		for i := 0; i < len(b); {
			j := i + 1
			for j < len(b) && b[j].CompletedAt == b[i].CompletedAt {
				j++
			}
			if j < len(b) && b[j].CompletedAt < b[i].CompletedAt {
				panic(fmt.Sprintf("sim: shard %d completion buffer out of time order at %d: %v after %v",
					s, j, b[j].CompletedAt, b[i].CompletedAt))
			}
			if j-i > 1 {
				slices.SortFunc(b[i:j], func(x, y ccn.RequestResult) int { return cmp.Compare(x.Req, y.Req) })
			}
			i = j
		}
		total += len(b)
	}
	heads := make([]int, len(bufs))
	for ; total > 0; total-- {
		best := -1
		for s, b := range bufs {
			if heads[s] == len(b) {
				continue
			}
			if best < 0 || completionBefore(&b[heads[s]], &bufs[best][heads[best]]) {
				best = s
			}
		}
		visit(bufs[best][heads[best]])
		heads[best]++
	}
}

// completionBefore reports whether a precedes b in (CompletedAt, Req)
// order.
func completionBefore(a, b *ccn.RequestResult) bool {
	if a.CompletedAt != b.CompletedAt {
		return a.CompletedAt < b.CompletedAt
	}
	return a.Req < b.Req
}

// assignRequestIDs replays every router's arrival clock (the same
// ArrivalSeed streams the live processes draw from) and deals the
// global request identities 1..total in arrival-time order — the order
// a single engine's counter allocates them in. Exact-time ties across
// routers break by router index, matching a single engine's scheduling
// order for simultaneous arrivals; between independent
// continuous exponential clocks such ties otherwise have measure zero.
// The result is per-router: ids[i][k] is the identity of router i's
// k-th arrival (warmup included).
func assignRequestIDs(seed int64, nRouters int, interArrival float64, reqsOf func(int) (int, int)) [][]int64 {
	type cursor struct {
		i   int // router index
		rng *rand.Rand
		t   float64 // pending arrival time
		k   int     // arrivals dealt so far
		n   int     // total arrivals
	}
	ids := make([][]int64, nRouters)
	h := make([]*cursor, 0, nRouters)
	less := func(a, b *cursor) bool {
		if a.t != b.t {
			return a.t < b.t
		}
		return a.i < b.i
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			best := i
			if l < len(h) && less(h[l], h[best]) {
				best = l
			}
			if r < len(h) && less(h[r], h[best]) {
				best = r
			}
			if best == i {
				return
			}
			h[i], h[best] = h[best], h[i]
			i = best
		}
	}
	for i := 0; i < nRouters; i++ {
		nReq, _ := reqsOf(i)
		if nReq == 0 {
			continue
		}
		c := &cursor{i: i, rng: rand.New(rand.NewSource(ArrivalSeed(seed, i))), n: nReq}
		c.t = c.rng.ExpFloat64() * interArrival
		ids[i] = make([]int64, 0, nReq)
		h = append(h, c)
	}
	// Heapify (cursors were appended in router order).
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	var next int64
	for len(h) > 0 {
		c := h[0]
		next++
		ids[c.i] = append(ids[c.i], next)
		c.k++
		if c.k == c.n {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			c.t += c.rng.ExpFloat64() * interArrival
		}
		siftDown(0)
	}
	return ids
}
