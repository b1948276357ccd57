// The run manifest: one serializable document describing everything a
// finished run measured — summary metrics, the full registry snapshot
// (latency histogram with underflow/overflow accounting, tier means,
// served-by counts), per-router data-plane stats with network-wide
// totals, coordination and transport message counts, availability and
// downtime, and engine gauges. A manifest from a given scenario is
// byte-identical across runs (encoding/json serializes map keys
// sorted, and the simulator is deterministic), so manifests diff
// cleanly across code versions.
package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"ccncoord/internal/ccn"
	"ccncoord/internal/des"
	"ccncoord/internal/metrics"
	"ccncoord/internal/timeline"
)

// ManifestSchema identifies the manifest JSON layout. The schema is
// append-only: consumers must tolerate unknown fields, and any
// field-semantics change bumps the version suffix.
const ManifestSchema = "ccncoord/run-manifest/v1"

// RunManifest is the run's observability record. Every counter in it
// matches the corresponding Result field / ccn.Network accessor exactly
// — the manifest is a serialization of the run's accounting, not a
// second measurement.
type RunManifest struct {
	Schema     string `json:"schema"`
	Policy     string `json:"policy"`
	Assignment string `json:"assignment"`
	Routers    int    `json:"routers"`
	Seed       int64  `json:"seed"`
	Requests   int    `json:"requests"`
	Warmup     int    `json:"warmup"`

	Summary ManifestSummary `json:"summary"`

	// Metrics is the registry snapshot: the latency histogram
	// ("latency_ms", with underflow/overflow/rejected accounting), the
	// running means (latency, hops, per-tier latency), and the
	// served-by counter.
	Metrics metrics.RegistrySnapshot `json:"metrics"`

	Availability metrics.AvailabilitySnapshot `json:"availability"`

	Coordination ManifestCoordination `json:"coordination"`
	Transport    ManifestTransport    `json:"transport"`

	// Nodes holds every router's data-plane snapshot in ID order;
	// NodeTotals is their network-wide sum.
	Nodes      []ccn.NodeStats `json:"nodes"`
	NodeTotals ccn.StatsTotals `json:"node_totals"`

	Engine ManifestEngine `json:"engine"`

	// Chaos holds the chaos scenario's coordination outcomes when the
	// run executed one; nil otherwise (so non-chaos manifests are
	// byte-identical to those of earlier versions).
	Chaos *ManifestChaos `json:"chaos,omitempty"`

	// Trace reports the tracer's sampling accounting when the run was
	// traced; nil otherwise. Note the counts depend on the tracer's
	// prior use — a tracer shared across runs accumulates.
	Trace *ManifestTrace `json:"trace,omitempty"`

	// Timeline carries the coordination-epoch records retained by the
	// scenario's telemetry ring (Scenario.Timeline) — for single-run
	// scenarios the placement installation, for adaptive runs one
	// record per coordination epoch. Nil (and omitted) when the run
	// recorded no timeline, keeping telemetry-off manifests
	// byte-identical to earlier versions.
	Timeline []timeline.EpochRecord `json:"timeline,omitempty"`
}

// ManifestChaos mirrors the chaos-outcome Result fields.
type ManifestChaos struct {
	Scenario               string  `json:"scenario"`
	CoordOutages           int     `json:"coord_outages"`
	CoordDowntimeMs        float64 `json:"coord_downtime_ms"`
	DegradedMs             float64 `json:"degraded_ms"`
	DegradedServes         int64   `json:"degraded_serves"`
	DegradedRequests       int64   `json:"degraded_requests"`
	DegradedOriginLoad     float64 `json:"degraded_origin_load"`
	StalePlacementHits     int64   `json:"stale_placement_hits"`
	ReconvergeMoves        int64   `json:"reconverge_moves"`
	MeanTimeToReconvergeMs float64 `json:"mean_time_to_reconverge_ms"`
}

// ManifestSummary mirrors the headline Result fields.
type ManifestSummary struct {
	OriginLoad    float64 `json:"origin_load"`
	LocalHit      float64 `json:"local_hit"`
	PeerHit       float64 `json:"peer_hit"`
	MeanLatencyMs float64 `json:"mean_latency_ms"`
	MeanHops      float64 `json:"mean_hops"`
	LatencyP50    float64 `json:"latency_p50_ms"`
	LatencyP95    float64 `json:"latency_p95_ms"`
	LatencyP99    float64 `json:"latency_p99_ms"`
	Availability  float64 `json:"availability"`
	DowntimeMs    float64 `json:"downtime_ms"`
}

// ManifestCoordination aggregates the coordination protocol's message
// economy: placement installation, failure detection, and repair.
type ManifestCoordination struct {
	Messages           int64   `json:"messages"`
	ConvergenceMs      float64 `json:"convergence_ms"`
	Heartbeats         int64   `json:"heartbeats"`
	RepairMessages     int64   `json:"repair_messages"`
	Repairs            int     `json:"repairs"`
	MeanTimeToRepairMs float64 `json:"mean_time_to_repair_ms"`
}

// ManifestTransport aggregates packet-level data-plane activity.
type ManifestTransport struct {
	InterestTransmissions int64   `json:"interest_transmissions"`
	DataTransmissions     int64   `json:"data_transmissions"`
	DroppedInterests      int64   `json:"dropped_interests"`
	DroppedData           int64   `json:"dropped_data"`
	Retransmissions       int64   `json:"retransmissions"`
	FaultDrops            int64   `json:"fault_drops"`
	ExpiredInterests      int64   `json:"expired_interests"`
	FailedRequests        int64   `json:"failed_requests"`
	RouteRecomputes       int64   `json:"route_recomputes"`
	QueuedPackets         int64   `json:"queued_packets"`
	MeanQueueingDelayMs   float64 `json:"mean_queueing_delay_ms"`
}

// ManifestEngine holds discrete-event engine gauges. EventsProcessed is
// identical across shard counts (sharding never changes the event set);
// PendingPeak is exact on serial runs but a lower-bound approximation on
// sharded ones (sampled at window barriers plus per-shard peaks), so it
// may differ between shard counts.
type ManifestEngine struct {
	EventsProcessed uint64 `json:"events_processed"`
	PendingPeak     int    `json:"pending_peak"`
	// Shards is the number of event-loop shards the run executed on
	// (1 = the serial engine). CrossShardEvents counts events delivered
	// across a shard boundary (0 on serial runs).
	Shards           int    `json:"shards"`
	CrossShardEvents uint64 `json:"cross_shard_events"`
	// ShardFallbackReason records why an explicitly requested
	// multi-shard run (Scenario.Shards >= 2) was downgraded to the
	// serial engine: the non-shardable scenario features. Empty (and
	// omitted from the JSON, keeping pre-existing manifests
	// byte-identical) when no fallback happened; the automatic rule
	// choosing serial is policy, not a fallback.
	ShardFallbackReason string `json:"shard_fallback_reason,omitempty"`

	// Extended sharded-engine telemetry, populated only under
	// Scenario.EngineTelemetry on a sharded run (all omitted otherwise,
	// preserving earlier manifests byte for byte): window accounting,
	// per-shard load balance including wall-clock busy/barrier-wait
	// time (nondeterministic; ccnbench -diff ignores *_wall_ms), and
	// the cross-shard traffic matrix.
	Windows          uint64           `json:"windows,omitempty"`
	MeanWindowSpanMs float64          `json:"mean_window_span_ms,omitempty"`
	ShardStats       []des.ShardStats `json:"shard_stats,omitempty"`
	CrossShardMatrix [][]uint64       `json:"cross_shard_matrix,omitempty"`
}

// ManifestTrace is the tracer's sampling accounting.
type ManifestTrace struct {
	Stride  uint64 `json:"stride"`
	Seen    uint64 `json:"seen"`
	Emitted uint64 `json:"emitted"`
}

// buildManifest assembles the manifest from the run's finished
// accounting. It copies; it does not re-measure. The caller supplies
// the engine gauges.
func buildManifest(sc Scenario, res Result, engine ManifestEngine, net *ccn.Network, reg *metrics.Registry, avail metrics.AvailabilitySnapshot) *RunManifest {
	nodes := net.AllStats()
	m := &RunManifest{
		Schema:     ManifestSchema,
		Policy:     sc.Policy.String(),
		Assignment: sc.Assignment.String(),
		Routers:    sc.Topology.N(),
		Seed:       sc.Seed,
		Requests:   res.Requests,
		Warmup:     sc.Warmup,
		Summary: ManifestSummary{
			OriginLoad:    res.OriginLoad,
			LocalHit:      res.LocalHit,
			PeerHit:       res.PeerHit,
			MeanLatencyMs: res.MeanLatency,
			MeanHops:      res.MeanHops,
			LatencyP50:    res.LatencyP50,
			LatencyP95:    res.LatencyP95,
			LatencyP99:    res.LatencyP99,
			Availability:  res.Availability,
			DowntimeMs:    res.RouterDowntime,
		},
		Metrics:      reg.Snapshot(),
		Availability: avail,
		Coordination: ManifestCoordination{
			Messages:           res.CoordMessages,
			ConvergenceMs:      res.CoordConvergence,
			Heartbeats:         res.HeartbeatMessages,
			RepairMessages:     res.RepairMessages,
			Repairs:            len(res.Repairs),
			MeanTimeToRepairMs: res.MeanTimeToRepair,
		},
		Transport: ManifestTransport{
			InterestTransmissions: res.InterestTransmissions,
			DataTransmissions:     res.DataTransmissions,
			DroppedInterests:      res.DroppedInterests,
			DroppedData:           res.DroppedData,
			Retransmissions:       res.Retransmissions,
			FaultDrops:            res.FaultDrops,
			ExpiredInterests:      res.ExpiredInterests,
			FailedRequests:        res.FailedRequests,
			RouteRecomputes:       res.RouteRecomputes,
			QueuedPackets:         res.QueuedPackets,
			MeanQueueingDelayMs:   res.MeanQueueingDelay,
		},
		Nodes:      nodes,
		NodeTotals: ccn.SumStats(nodes),
		Engine:     engine,
	}
	if sc.Chaos != nil {
		m.Chaos = &ManifestChaos{
			Scenario:               sc.Chaos.Name,
			CoordOutages:           res.CoordOutages,
			CoordDowntimeMs:        res.CoordDowntime,
			DegradedMs:             res.DegradedTime,
			DegradedServes:         res.DegradedServes,
			DegradedRequests:       res.DegradedRequests,
			DegradedOriginLoad:     res.DegradedOriginLoad,
			StalePlacementHits:     res.StalePlacementHits,
			ReconvergeMoves:        res.ReconvergeMoves,
			MeanTimeToReconvergeMs: res.MeanTimeToReconverge,
		}
	}
	if sc.Tracer != nil {
		m.Trace = &ManifestTrace{
			Stride:  sc.Tracer.Stride(),
			Seen:    sc.Tracer.Seen(),
			Emitted: sc.Tracer.Emitted(),
		}
	}
	if sc.Timeline != nil {
		m.Timeline = sc.Timeline.Snapshot().Records
	}
	return m
}

// WriteJSON serializes the manifest as indented JSON followed by a
// newline. The output is byte-deterministic for a given manifest.
func (m *RunManifest) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("sim: marshaling manifest: %w", err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("sim: writing manifest: %w", err)
	}
	return nil
}
