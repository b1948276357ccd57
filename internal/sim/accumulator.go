package sim

import (
	"fmt"
	"math"

	"ccncoord/internal/catalog"
	"ccncoord/internal/ccn"
	"ccncoord/internal/coord"
	"ccncoord/internal/metrics"
	"ccncoord/internal/topology"
)

// accumulator aggregates measured request completions into a Result.
// Every run feeds it in the serial engine's completion order — directly
// from the completion callback on one engine, from the merged per-shard
// buffers on several — so its float sums are bit-identical at any shard
// count.
type accumulator struct {
	observer func(ccn.RequestResult)
	measured int

	// The run's scalar aggregates live in a named registry so the
	// manifest can snapshot them all at once; the hot path holds direct
	// pointers, so the registry costs nothing per request.
	reg         *metrics.Registry
	latency     *metrics.Mean
	hops        *metrics.Mean
	peerHops    *metrics.Mean
	tierLat     [3]*metrics.Mean
	latencyHist *metrics.Histogram
	counts      *metrics.Counter

	peerServes   map[topology.NodeID]int64
	reportCounts []map[catalog.ID]int64 // nil unless CollectReports
	avail        metrics.Availability
}

// newAccumulator registers the run's metrics. net must be the network
// the run forwards on: its routing backend sizes the latency histogram.
func newAccumulator(sc Scenario, net *ccn.Network) (*accumulator, error) {
	reg := metrics.NewRegistry()
	a := &accumulator{
		observer: sc.Observer,
		reg:      reg,
		latency:  reg.Mean("latency_ms"),
		hops:     reg.Mean("hops"),
		peerHops: reg.Mean("peer_hops"),
		tierLat: [3]*metrics.Mean{
			reg.Mean("tier_latency_local_ms"),
			reg.Mean("tier_latency_peer_ms"),
			reg.Mean("tier_latency_origin_ms"),
		},
	}
	// The histogram range covers the worst possible round trip — the
	// leading 2 converts the one-way sum (access latency + there-and-back
	// network diameter + origin uplink) to a round trip, and rttHeadroom
	// widens it for retransmission delays. Samples past the headroom
	// (deep retry backoff) land in the histogram's overflow counter and
	// saturate quantile estimates at the range edge instead of skewing
	// them. net.Routes() is the routing backend the network forwards
	// with: on the dense backend MaxDist reads the cached matrix; on the
	// LRU backend it runs one parallel Dijkstra sweep without an O(n²)
	// matrix, and the sweep leaves its trees cached while capacity
	// lasts. Every run builds the accumulator before it starts, so its
	// forwarding queries find their trees already resident.
	maxRTT := 2 * (sc.AccessLatency + 2*net.Routes().MaxDist() + sc.OriginLatency) * rttHeadroom
	hist, err := reg.Histogram("latency_ms", 0, math.Max(maxRTT, 1), 2048)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	a.latencyHist = hist
	a.counts = reg.Counter("served_by")
	a.peerServes = make(map[topology.NodeID]int64)
	if sc.CollectReports {
		a.reportCounts = make([]map[catalog.ID]int64, sc.Topology.N())
		for i := range a.reportCounts {
			a.reportCounts[i] = make(map[catalog.ID]int64)
		}
	}
	return a, nil
}

// observe folds one measured completion into the aggregates.
func (a *accumulator) observe(result ccn.RequestResult) {
	a.measured++
	if a.observer != nil {
		a.observer(result)
	}
	a.counts.Inc(result.ServedBy.String())
	if result.Failed {
		a.avail.ObserveFailed()
		return
	}
	a.avail.ObserveOK()
	a.latency.Observe(result.Latency())
	a.latencyHist.Observe(result.Latency())
	a.hops.Observe(float64(result.Hops))
	a.tierLat[int(result.ServedBy)].Observe(result.Latency())
	if result.ServedBy == ccn.ServedPeer {
		a.peerHops.Observe(float64(result.Hops))
		a.peerServes[result.Server]++
	}
	if a.reportCounts != nil {
		a.reportCounts[result.Router][result.Content]++
	}
}

// fill writes the measured aggregates and the network's transport and
// fault counters into res.
func (a *accumulator) fill(res *Result, net *ccn.Network) error {
	if a.measured == 0 {
		return fmt.Errorf("sim: no measured requests completed")
	}
	measured := float64(a.measured)
	res.Requests = a.measured
	res.OriginLoad = float64(a.counts.Get("origin")) / measured
	res.LocalHit = float64(a.counts.Get("local")) / measured
	res.PeerHit = float64(a.counts.Get("peer")) / measured
	res.MeanLatency = a.latency.Value()
	res.LatencyP50 = a.latencyHist.Quantile(0.50)
	res.LatencyP95 = a.latencyHist.Quantile(0.95)
	res.LatencyP99 = a.latencyHist.Quantile(0.99)
	res.MeanHops = a.hops.Value()
	res.TierLatency = TierLatencies{
		Local:  a.tierLat[int(ccn.ServedLocal)].Value(),
		Peer:   a.tierLat[int(ccn.ServedPeer)].Value(),
		Origin: a.tierLat[int(ccn.ServedOrigin)].Value(),
	}
	res.PeerHops = a.peerHops.Value()
	if len(a.peerServes) > 0 {
		var total, worst int64
		for _, c := range a.peerServes {
			total += c
			if c > worst {
				worst = c
			}
		}
		mean := float64(total) / float64(len(a.peerServes))
		res.PeerLoadImbalance = float64(worst) / mean
	}
	res.InterestTransmissions = net.InterestTransmissions()
	res.DataTransmissions = net.DataTransmissions()
	res.DroppedInterests = net.DroppedInterests()
	res.DroppedData = net.DroppedData()
	res.Retransmissions = net.Retransmissions()
	res.MeanQueueingDelay = net.MeanQueueingDelay()
	res.QueuedPackets = net.QueuedPackets()
	res.FailedRequests = net.FailedRequests()
	res.Availability = a.avail.Value()
	res.FaultDrops = net.FaultDrops()
	res.ExpiredInterests = net.ExpiredInterests()
	res.RouteRecomputes = net.RouteRecomputes()
	if a.reportCounts != nil {
		res.Reports = make([]coord.Report, len(a.reportCounts))
		for i, counts := range a.reportCounts {
			res.Reports[i] = coord.Report{Router: topology.NodeID(i), Counts: counts}
		}
	}
	return nil
}
