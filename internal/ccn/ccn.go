// Package ccn implements a packet-level content-centric network data
// plane on top of the discrete-event engine: routers with content stores,
// Pending Interest Tables (PIT) with request aggregation, FIB-style
// forwarding along latency-shortest paths, reverse-path data delivery,
// on-path caching modes, and an origin server attachment. The paper's
// analytical model abstracts this machinery; the simulator exists to
// validate the model's steady-state predictions (origin load, tier hit
// ratios, mean latency and hop count) against an executable system.
package ccn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ccncoord/internal/cache"
	"ccncoord/internal/catalog"
	"ccncoord/internal/des"
	"ccncoord/internal/topology"
	"ccncoord/internal/trace"
)

// ServerKind identifies which tier ultimately served a request.
type ServerKind int

// Tiers, in the model's d0/d1/d2 order.
const (
	ServedLocal  ServerKind = iota // requesting router's own content store
	ServedPeer                     // another router in the domain
	ServedOrigin                   // the origin server
	// ServedNone marks a failed request: the retry budget was exhausted
	// without data arriving (only possible on faulty fabrics).
	ServedNone
)

// String returns the tier name.
func (k ServerKind) String() string {
	switch k {
	case ServedLocal:
		return "local"
	case ServedPeer:
		return "peer"
	case ServedOrigin:
		return "origin"
	case ServedNone:
		return "failed"
	default:
		return fmt.Sprintf("ServerKind(%d)", int(k))
	}
}

// CachingMode selects the on-path caching decision applied to returning
// data.
type CachingMode int

const (
	// CacheNone never admits passing data; used with provisioned
	// (static) stores, which ignore Insert anyway.
	CacheNone CachingMode = iota
	// CacheLCE ("leave copy everywhere") offers data to every router on
	// the return path.
	CacheLCE
	// CacheLCD ("leave copy down") offers data only to the first router
	// below the serving point on the return path.
	CacheLCD
	// CacheProb ("probabilistic caching") offers data to each on-path
	// router independently with probability Options.CacheProbability, a
	// common ICN baseline that thins redundant replicas.
	CacheProb
)

// Directory resolves which router coordinately stores a content, the
// lookup service the coordination protocol maintains.
type Directory interface {
	// Owner returns the router assigned to store id, if any.
	Owner(id catalog.ID) (topology.NodeID, bool)
}

// RequestResult describes one completed content request.
type RequestResult struct {
	Content     catalog.ID
	Router      topology.NodeID // first-hop router of the client
	IssuedAt    float64
	CompletedAt float64
	// Hops is the number of network links (router-router, plus the
	// origin uplink when applicable) between the serving point and the
	// requesting router; 0 for a local hit. Client access links are not
	// counted, matching the paper's motivating example.
	Hops     int
	ServedBy ServerKind
	Server   topology.NodeID // serving router; -1 when served by origin
	// Failed marks a request the network gave up on: its first-hop
	// router was crashed, or the bounded retry budget was exhausted
	// without data arriving. ServedBy is ServedNone and Server is -1.
	Failed bool
	// Req is the request's monotonic per-run identity (1-based,
	// allocated in issue order across all client requests, warmup
	// included). Trace events caused by this request carry the same ID.
	Req int64
}

// Latency returns the client-observed request latency.
func (r RequestResult) Latency() float64 { return r.CompletedAt - r.IssuedAt }

// Options configures a Network.
type Options struct {
	// AccessLatency is the one-way client <-> first-hop-router latency
	// (the model's d0 is the round trip of this access hop).
	AccessLatency float64
	// Stores builds the content store for each router. Required.
	Stores func(id topology.NodeID) (cache.Store, error)
	// Mode is the on-path caching decision for returning data.
	Mode CachingMode
	// Directory, when non-nil, lets routers redirect misses to the
	// coordinated owner of a content instead of the origin.
	Directory Directory
	// DegradedStores, when non-nil, builds the per-router overlay
	// store used in degraded mode: while the coordination channel is
	// down (EnterDegraded), routers stop trusting the directory and
	// cache en route (LCE) into these overlays instead, so the plane
	// keeps absorbing load autonomously. Overlays are built lazily at
	// the first EnterDegraded and dropped at ExitDegraded. Required
	// before EnterDegraded may be called.
	DegradedStores func(id topology.NodeID) (cache.Store, error)

	// LossRate is the independent per-transmission drop probability on
	// network links (interests, data, and origin uplink exchanges).
	// Zero means a lossless fabric. Must be in [0, 1).
	LossRate float64
	// RetxTimeout is the base per-router interest retransmission
	// timeout (ms): while a PIT entry is unsatisfied, its router
	// re-sends the interest upstream with exponential backoff starting
	// from this value. Required when LossRate > 0 or Faults is set.
	RetxTimeout float64
	// LossSeed seeds the loss process, the retransmission jitter, and
	// the probabilistic caching decision; runs with the same seed are
	// reproducible. Zero selects 1.
	LossSeed int64

	// Faults enables the fault-aware data plane: routers and links may
	// be taken down via SetRouterState/SetLinkState, routes are
	// recomputed around outages, and retransmission timers arm even on
	// lossless fabrics so redirected interests recover from crashed
	// owners. Requires a positive RetxTimeout.
	Faults bool
	// MaxRetries bounds the retransmissions per PIT entry; after the
	// initial send plus MaxRetries retries the entry expires and client
	// requests complete as Failed. Zero selects DefaultMaxRetries.
	// Applies whenever retransmission is active (lossy or faulty
	// fabrics).
	MaxRetries int
	// RetxBackoff is the exponential backoff multiplier between
	// successive retries; must be >= 1 when set. Zero selects
	// DefaultRetxBackoff.
	RetxBackoff float64
	// RetxJitter spreads each retry timeout uniformly over
	// [timeout, timeout*(1+RetxJitter)), de-synchronizing retry storms.
	// Must lie in [0, 1); zero means no jitter.
	RetxJitter float64
	// OriginFallbackRetries is the number of directory-redirected
	// retries before a retrying router bypasses the directory and goes
	// straight to the origin — the graceful-degradation path when a
	// coordinated owner is unreachable. It applies only on fault-aware
	// planes (Options.Faults): on a merely lossy fabric the owner is
	// alive, so retries keep following the directory. Zero selects
	// DefaultOriginFallbackRetries; negative disables the fallback.
	OriginFallbackRetries int

	// CacheProbability is the per-router admission probability under
	// CacheProb mode; must lie in (0, 1] when that mode is selected.
	CacheProbability float64

	// Tracer, when non-nil, receives a structured event per packet
	// transmission, drop, retry, PIT expiry and fault transition (see
	// internal/trace for the schema). Every emission site nil-checks
	// first, so a disabled tracer costs one branch on the hot path and
	// never perturbs the simulation.
	Tracer *trace.Tracer

	// LinkRate is the serialization capacity of every link in unit
	// contents per millisecond. Data packets (unit size) occupy a link
	// for 1/LinkRate ms and queue FIFO behind each other per directed
	// link; interests are treated as negligibly small, as in CCN.
	// Zero means infinite capacity (no queueing).
	LinkRate float64

	// Routing selects the shortest-path backend the data plane forwards
	// with (see topology.PathProvider). The zero value, BackendAuto,
	// keeps the dense matrix below topology.DenseAutoThreshold nodes —
	// bit-identical to all prior behavior on the calibrated datasets —
	// and switches to the LRU tree cache above it, where a dense matrix
	// would be quadratic in memory. Fault-aware planes (Options.Faults)
	// require the dense backend: incremental rerouting (DynAPSP) repairs
	// a materialized matrix, so NewNetwork rejects Faults combined with
	// the LRU backend rather than silently misrouting around outages.
	Routing topology.Backend
}

// originNeighbor marks the origin uplink in forwarding decisions.
const originNeighbor topology.NodeID = -1

// Retransmission policy defaults (see Options).
const (
	// DefaultMaxRetries is the per-PIT-entry retry budget when
	// Options.MaxRetries is zero.
	DefaultMaxRetries = 8
	// DefaultRetxBackoff doubles the timeout on every retry.
	DefaultRetxBackoff = 2.0
	// DefaultOriginFallbackRetries is how many retries keep following
	// the directory before degrading to the origin.
	DefaultOriginFallbackRetries = 2
	// maxBackoffExponent clamps the exponential backoff so late retries
	// do not wait unboundedly long.
	maxBackoffExponent = 5
)

// pendingRequest is a client request waiting in a PIT.
type pendingRequest struct {
	issuedAt float64
	done     func(RequestResult)
	req      int64 // the request's per-run identity
}

// pitFace is one downstream requester of a pending interest: either a
// neighboring router or a local client. req is the identity of the
// client request whose lifecycle opened this face — the faces slice of
// an entry is therefore the full set of request IDs aggregated on it.
type pitFace struct {
	neighbor topology.NodeID // used when request is nil
	request  *pendingRequest // non-nil for client faces
	req      int64
}

// pitEntry aggregates all downstream requesters of one content and
// tracks its bounded retransmission state.
type pitEntry struct {
	faces []pitFace
	// attempts counts upstream sends so far (1 after the initial
	// forward); the retry budget caps it at 1+MaxRetries.
	attempts int
	// primaryReq is the request that created the entry and drove the
	// upstream send; retries, expiries and the upstream data leg are
	// attributed to it (aggregated requests observe recovery only
	// through their own return-path events).
	primaryReq int64
}

// node is one CCN router: content store plus PIT, with activity
// counters surfaced via Network.Stats.
type node struct {
	id  topology.NodeID
	cs  cache.Store
	pit map[catalog.ID]*pitEntry

	// deg is the degraded-mode overlay store: autonomous en-route
	// copies cached while coordination is lost. Nil outside degraded
	// mode (ExitDegraded drops it — the re-convergence flush).
	deg cache.Store

	// crashed marks a failed router: it neither forwards, serves, nor
	// accepts packets until recovery.
	crashed bool

	csHits     int64
	csMisses   int64
	aggregated int64
	forwarded  int64
	pitPeak    int
}

// txShard holds the packet-transmission counters written on the hot
// forwarding path. Serial networks use a single slot; sharded networks
// give each shard its own cache-line-padded slot (a router's counters
// are bumped only by its owning shard) and sum the slots on read.
type txShard struct {
	interests int64
	data      int64
	_         [48]byte // keep adjacent shards off one cache line
}

// Network is an executable CCN domain over a topology.
type Network struct {
	graph *topology.Graph
	lat   topology.PathProvider
	nodes []*node
	cat   *catalog.Catalog
	opts  Options

	// engs are the event loops driving the plane and shardOf maps each
	// router to the engine that owns its state: one engine and an
	// all-zero map on serial networks (NewNetwork), one engine per
	// shard on sharded ones (NewShardedNetwork).
	engs    []*des.Engine
	shardOf []int32

	// Origin attachment: either a gateway router with an uplink, or a
	// uniform per-router uplink.
	originRouter  topology.NodeID
	originLatency float64
	uniformOrigin bool
	attached      bool

	// Counters over the whole run. Interest/data transmissions live in
	// per-shard slots (one slot on serial networks); the remaining
	// counters are only reachable on serial-only code paths (loss,
	// faults, queueing) and stay plain fields.
	tx               []txShard
	droppedInterests int64
	droppedData      int64
	retransmissions  int64

	// Fault-layer state and counters (Options.Faults only). dyn is the
	// incremental rerouting engine, attached lazily on the first fault
	// event; n.lat always points at its current matrix afterwards.
	dyn             *topology.DynAPSP
	downLinks       map[[2]topology.NodeID]bool
	faultDrops      int64 // transmissions blackholed by down links/routers
	expiredEntries  int64 // PIT entries whose retry budget ran out
	failedRequests  int64 // client requests completed as Failed
	routeRecomputes int64

	// Degraded-mode state: while degraded, routers ignore the
	// directory and cache en route into per-node overlays; while
	// placements are merely stale (coordination down but within the
	// staleness bound), directory forwards are counted as stale hits.
	// Both flags are off on planes that never degrade, costing the hot
	// path one predictable branch each.
	degraded           bool
	placementsStale    bool
	stalePlacementHits int64
	degradedServes     int64

	// rng drives the loss process and retransmission jitter; nil on
	// lossless, fault-free fabrics.
	rng *rand.Rand

	// nextReq is the last identity Request allocated; IDs rise
	// monotonically in issue order, so they are deterministic for a given
	// arrival schedule regardless of tracing.
	nextReq int64

	// linkBusy tracks, per directed link, when its transmitter frees up
	// (finite LinkRate only). The origin uplink of router r is keyed as
	// {r, originNeighbor}.
	linkBusy map[[2]topology.NodeID]float64
	// queueingTotal accumulates time data packets spent waiting for
	// link transmitters; queuedPackets counts data transmissions that
	// waited.
	queueingTotal float64
	queuedPackets int64
}

// NewNetwork builds a CCN data plane over the given connected topology.
func NewNetwork(eng *des.Engine, g *topology.Graph, cat *catalog.Catalog, opts Options) (*Network, error) {
	if eng == nil {
		return nil, fmt.Errorf("ccn: nil engine")
	}
	n, err := buildNetwork(g, cat, opts)
	if err != nil {
		return nil, err
	}
	n.engs = []*des.Engine{eng}
	n.shardOf = make([]int32, g.N())
	return n, nil
}

// buildNetwork validates options and constructs the router state shared
// by the serial and sharded constructors; the caller attaches the
// engines and the router-to-engine map.
func buildNetwork(g *topology.Graph, cat *catalog.Catalog, opts Options) (*Network, error) {
	switch {
	case g == nil || g.N() == 0:
		return nil, fmt.Errorf("ccn: empty topology")
	case !g.Connected():
		return nil, fmt.Errorf("ccn: topology %q is not connected", g.Name())
	case cat == nil:
		return nil, fmt.Errorf("ccn: nil catalog")
	case opts.Stores == nil:
		return nil, fmt.Errorf("ccn: Options.Stores is required")
	case opts.AccessLatency < 0:
		return nil, fmt.Errorf("ccn: negative access latency %v", opts.AccessLatency)
	case opts.LossRate < 0 || opts.LossRate >= 1:
		return nil, fmt.Errorf("ccn: loss rate %v outside [0, 1)", opts.LossRate)
	case opts.LossRate > 0 && !(opts.RetxTimeout > 0):
		return nil, fmt.Errorf("ccn: lossy fabric requires a positive retransmission timeout")
	case opts.Faults && !(opts.RetxTimeout > 0):
		return nil, fmt.Errorf("ccn: fault-aware fabric requires a positive retransmission timeout")
	case opts.MaxRetries < 0:
		return nil, fmt.Errorf("ccn: negative retry budget %d", opts.MaxRetries)
	case opts.RetxBackoff != 0 && opts.RetxBackoff < 1:
		return nil, fmt.Errorf("ccn: retransmission backoff %v below 1", opts.RetxBackoff)
	case opts.RetxJitter < 0 || opts.RetxJitter >= 1:
		return nil, fmt.Errorf("ccn: retransmission jitter %v outside [0, 1)", opts.RetxJitter)
	case opts.Mode == CacheProb && !(opts.CacheProbability > 0 && opts.CacheProbability <= 1):
		return nil, fmt.Errorf("ccn: CacheProb mode requires a probability in (0,1], got %v", opts.CacheProbability)
	case opts.LinkRate < 0:
		return nil, fmt.Errorf("ccn: negative link rate %v", opts.LinkRate)
	case opts.Faults && opts.Routing.Resolve(g.N()) != topology.BackendDense:
		return nil, fmt.Errorf("ccn: fault-aware plane requires the dense routing backend (incremental rerouting repairs a materialized matrix), got %q for %d nodes", opts.Routing.Resolve(g.N()), g.N())
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.RetxBackoff == 0 {
		opts.RetxBackoff = DefaultRetxBackoff
	}
	if opts.OriginFallbackRetries == 0 {
		opts.OriginFallbackRetries = DefaultOriginFallbackRetries
	}
	routes, err := topology.NewPathProvider(g, opts.Routing)
	if err != nil {
		return nil, fmt.Errorf("ccn: %w", err)
	}
	n := &Network{
		graph:        g,
		lat:          routes,
		cat:          cat,
		opts:         opts,
		originRouter: -1,
		tx:           make([]txShard, 1),
	}
	if opts.LossRate > 0 || opts.Faults || opts.Mode == CacheProb {
		seed := opts.LossSeed
		if seed == 0 {
			seed = 1
		}
		n.rng = rand.New(rand.NewSource(seed))
	}
	if opts.Faults {
		n.downLinks = make(map[[2]topology.NodeID]bool)
	}
	if opts.LinkRate > 0 {
		n.linkBusy = make(map[[2]topology.NodeID]float64)
	}
	for _, tn := range g.Nodes() {
		cs, err := opts.Stores(tn.ID)
		if err != nil {
			return nil, fmt.Errorf("ccn: building store for router %d: %w", tn.ID, err)
		}
		if cs == nil {
			return nil, fmt.Errorf("ccn: nil store for router %d", tn.ID)
		}
		n.nodes = append(n.nodes, &node{id: tn.ID, cs: cs, pit: make(map[catalog.ID]*pitEntry)})
	}
	return n, nil
}

// AttachOriginAt places the origin server behind the given gateway
// router with a one-way uplink latency. All origin-bound traffic routes
// through the gateway.
func (n *Network) AttachOriginAt(gateway topology.NodeID, latency float64) error {
	if int(gateway) < 0 || int(gateway) >= len(n.nodes) {
		return fmt.Errorf("ccn: unknown gateway router %d", gateway)
	}
	if !(latency > 0) {
		return fmt.Errorf("ccn: origin uplink latency must be positive, got %v", latency)
	}
	n.originRouter, n.originLatency, n.uniformOrigin, n.attached = gateway, latency, false, true
	return nil
}

// AttachOriginUniform gives every router a direct uplink to the origin
// with the given one-way latency, matching the holistic model's uniform
// d2 abstraction.
func (n *Network) AttachOriginUniform(latency float64) error {
	if !(latency > 0) {
		return fmt.Errorf("ccn: origin uplink latency must be positive, got %v", latency)
	}
	n.originLatency, n.uniformOrigin, n.attached = latency, true, true
	n.originRouter = -1
	return nil
}

// Store returns router id's content store (for pre-population and
// inspection).
func (n *Network) Store(id topology.NodeID) (cache.Store, error) {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return nil, fmt.Errorf("ccn: unknown router %d", id)
	}
	return n.nodes[id].cs, nil
}

// Routes returns the routing backend the data plane is forwarding
// with: the dense matrix by default (possibly a fault-repaired one
// while outages are active), or the LRU tree cache when
// Options.Routing selects it. Treat the result as read-only shared
// state.
func (n *Network) Routes() topology.PathProvider { return n.lat }

// InterestTransmissions returns the total number of interest packet
// transmissions over network links so far, summed across shards.
func (n *Network) InterestTransmissions() int64 {
	var total int64
	for i := range n.tx {
		total += n.tx[i].interests
	}
	return total
}

// DataTransmissions returns the total number of data packet
// transmissions over network links so far, summed across shards.
func (n *Network) DataTransmissions() int64 {
	var total int64
	for i := range n.tx {
		total += n.tx[i].data
	}
	return total
}

// txAt returns the transmission-counter slot of router r's engine.
func (n *Network) txAt(r topology.NodeID) *txShard {
	return &n.tx[n.shardOf[r]]
}

// nowAt returns the virtual clock of router r's engine.
func (n *Network) nowAt(r topology.NodeID) float64 {
	return n.engs[n.shardOf[r]].Now()
}

// schedFrom schedules fn to run on router to's engine after delay, from
// the context of an event executing at router from: a local push when
// both routers share an engine, a cross-shard mailbox send otherwise.
// Every cross-shard hand-off in the data plane rides a network link, so
// the delay is at least the partition's cut latency — the engine's
// lookahead bound.
func (n *Network) schedFrom(from, to topology.NodeID, delay float64, fn func()) error {
	return n.engs[n.shardOf[from]].ScheduleTo(int(n.shardOf[to]), delay, fn)
}

// DroppedInterests returns how many interest transmissions the lossy
// fabric discarded.
func (n *Network) DroppedInterests() int64 { return n.droppedInterests }

// DroppedData returns how many data transmissions the lossy fabric
// discarded.
func (n *Network) DroppedData() int64 { return n.droppedData }

// Retransmissions returns how many interest retransmissions timers
// fired for unsatisfied PIT entries.
func (n *Network) Retransmissions() int64 { return n.retransmissions }

// FaultDrops returns how many transmissions were blackholed by down
// links or crashed routers.
func (n *Network) FaultDrops() int64 { return n.faultDrops }

// ExpiredInterests returns how many PIT entries exhausted their retry
// budget without being satisfied.
func (n *Network) ExpiredInterests() int64 { return n.expiredEntries }

// FailedRequests returns how many client requests completed as Failed.
func (n *Network) FailedRequests() int64 { return n.failedRequests }

// RouteRecomputes returns how many times the forwarding tables were
// rebuilt after a topology change.
func (n *Network) RouteRecomputes() int64 { return n.routeRecomputes }

// SetPlacementsStale marks the installed directory stale (the
// coordination channel is down but the staleness bound has not yet
// expired) or fresh again. While stale, directory-redirected forwards
// are counted as StalePlacementHits — traffic still routed on
// placement state that can no longer be refreshed. Idempotent.
func (n *Network) SetPlacementsStale(stale bool) {
	n.placementsStale = stale
}

// PlacementsStale reports whether the directory is currently marked
// stale.
func (n *Network) PlacementsStale() bool { return n.placementsStale }

// StalePlacementHits returns how many interests were forwarded toward
// a coordinated owner while placements were marked stale.
func (n *Network) StalePlacementHits() int64 { return n.stalePlacementHits }

// Degraded reports whether the data plane is in degraded mode.
func (n *Network) Degraded() bool { return n.degraded }

// DegradedServes returns how many interests were served from degraded
// overlay stores.
func (n *Network) DegradedServes() int64 { return n.degradedServes }

// EnterDegraded switches the plane to autonomous operation: routers
// stop consulting the (dead) directory and fall back to en-route
// caching (LCE) into per-node overlay stores built by
// Options.DegradedStores. Safe to call when already degraded.
func (n *Network) EnterDegraded() error {
	if n.opts.DegradedStores == nil {
		return fmt.Errorf("ccn: degraded mode requires Options.DegradedStores")
	}
	if n.degraded {
		return nil
	}
	for _, nd := range n.nodes {
		if nd.deg != nil {
			continue
		}
		st, err := n.opts.DegradedStores(nd.id)
		if err != nil {
			return fmt.Errorf("ccn: building degraded store for router %d: %w", nd.id, err)
		}
		if st == nil {
			return fmt.Errorf("ccn: nil degraded store for router %d", nd.id)
		}
		nd.deg = st
	}
	n.degraded = true
	n.placementsStale = false // degraded supersedes stale: the directory is bypassed entirely
	// Tracing runs on one engine only, so router 0's clock is the plane's.
	if n.opts.Tracer != nil {
		n.opts.Tracer.Emit(trace.Event{T: n.nowAt(0), Kind: trace.KindMode, Router: -1, Detail: "degraded-enter"})
	}
	return nil
}

// ExitDegraded returns the plane to coordinated operation and drops
// every overlay store — the re-convergence step: autonomous en-route
// copies are discarded and the restored coordinated placement (kept
// consistent by the consistent-hash repair path) takes over. It
// returns the number of overlay entries flushed; calling it while not
// degraded is a no-op.
func (n *Network) ExitDegraded() int {
	if !n.degraded {
		return 0
	}
	n.degraded = false
	flushed := 0
	for _, nd := range n.nodes {
		if nd.deg != nil {
			flushed += nd.deg.Len()
			nd.deg = nil
		}
	}
	if n.opts.Tracer != nil {
		n.opts.Tracer.Emit(trace.Event{T: n.nowAt(0), Kind: trace.KindMode, Router: -1, N: int64(flushed), Detail: "degraded-exit"})
	}
	return flushed
}

// retxActive reports whether retransmission timers arm for new PIT
// entries: on lossy fabrics (the timers recover drops) and on
// fault-aware fabrics (they recover interests blackholed by outages).
func (n *Network) retxActive() bool {
	return n.opts.LossRate > 0 || n.opts.Faults
}

// SetRouterState crashes (up=false) or recovers (up=true) router r,
// implementing fault.Target. Crashing flushes the router's PIT —
// pending client requests there complete as Failed, neighbor faces are
// dropped (their routers' own retry timers recover) — and removes the
// router from the forwarding tables. Requires Options.Faults.
func (n *Network) SetRouterState(r topology.NodeID, up bool) error {
	if !n.opts.Faults {
		return fmt.Errorf("ccn: fault injection requires Options.Faults")
	}
	if int(r) < 0 || int(r) >= len(n.nodes) {
		return fmt.Errorf("ccn: unknown router %d", r)
	}
	nd := n.nodes[r]
	if nd.crashed == !up {
		return nil // idempotent
	}
	n.ensureDyn()
	nd.crashed = !up
	if n.opts.Tracer != nil {
		detail := "router-up"
		if !up {
			detail = "router-down"
		}
		n.opts.Tracer.Emit(trace.Event{T: n.nowAt(r), Kind: trace.KindFault, Router: int(r), Detail: detail})
	}
	if nd.crashed {
		n.flushPIT(nd)
	}
	n.routeRecomputes++
	n.lat = n.dyn.SetNode(r, up)
	return nil
}

// SetLinkState takes the undirected link (a, b) down or up,
// implementing fault.Target. Packets are not forwarded over down
// links; routes are recomputed around them. Requires Options.Faults.
func (n *Network) SetLinkState(a, b topology.NodeID, up bool) error {
	if !n.opts.Faults {
		return fmt.Errorf("ccn: fault injection requires Options.Faults")
	}
	if !n.graph.HasEdge(a, b) {
		return fmt.Errorf("ccn: no link (%d,%d)", a, b)
	}
	key := linkKey(a, b)
	if n.downLinks[key] == !up {
		return nil // idempotent
	}
	n.ensureDyn()
	if up {
		delete(n.downLinks, key)
	} else {
		n.downLinks[key] = true
	}
	if n.opts.Tracer != nil {
		detail := "link-up"
		if !up {
			detail = "link-down"
		}
		n.opts.Tracer.Emit(trace.Event{T: n.nowAt(a), Kind: trace.KindFault, Router: int(a), Peer: int(b), Detail: detail})
	}
	n.routeRecomputes++
	n.lat = n.dyn.SetLink(a, b, up)
	return nil
}

// linkKey normalizes an undirected link to a map key.
func linkKey(a, b topology.NodeID) [2]topology.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.NodeID{a, b}
}

// linkDown reports whether the link (a, b) is out of service.
func (n *Network) linkDown(a, b topology.NodeID) bool {
	return len(n.downLinks) > 0 && n.downLinks[linkKey(a, b)]
}

// crashed reports whether router r is down.
func (n *Network) crashedRouter(r topology.NodeID) bool {
	return n.opts.Faults && n.nodes[r].crashed
}

// ensureDyn lazily attaches the incremental rerouting engine, which
// repairs forwarding tables per fault event — recomputing only sources
// whose shortest-path tree used the failed element — instead of
// rebuilding the alive subgraph from scratch. Down links and every link
// incident to a crashed router are excluded from routing, modeling an
// instantly converged routing plane (the data plane's retry timers
// cover the packets in flight during the transition). If fault state
// already exists when the engine attaches (only possible after a
// permanent FailLink reset it), the seed state is ordered
// deterministically.
func (n *Network) ensureDyn() {
	if n.dyn != nil {
		return
	}
	var downNodes []topology.NodeID
	for _, nd := range n.nodes {
		if nd.crashed {
			downNodes = append(downNodes, nd.id)
		}
	}
	downLinks := make([][2]topology.NodeID, 0, len(n.downLinks))
	for key := range n.downLinks {
		downLinks = append(downLinks, key)
	}
	sort.Slice(downLinks, func(i, j int) bool {
		if downLinks[i][0] != downLinks[j][0] {
			return downLinks[i][0] < downLinks[j][0]
		}
		return downLinks[i][1] < downLinks[j][1]
	})
	n.dyn = topology.NewDynAPSP(n.graph, downNodes, downLinks)
}

// flushPIT drops every pending entry of a crashing router: client
// faces complete as Failed, neighbor faces are abandoned (downstream
// retransmission recovers them). Entries flush in content-id order so
// the completion stream stays deterministic.
func (n *Network) flushPIT(nd *node) {
	if len(nd.pit) == 0 {
		return
	}
	ids := make([]catalog.ID, 0, len(nd.pit))
	for id := range nd.pit {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		entry := nd.pit[id]
		delete(nd.pit, id)
		n.expiredEntries++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nd.id), Kind: trace.KindExpire, Router: int(nd.id), Content: int64(id), Detail: "crash-flush", Req: entry.primaryReq})
		}
		for _, f := range entry.faces {
			if f.request != nil {
				n.failRequest(nd.id, id, f.request)
			}
		}
	}
}

// failRequest completes a client request as Failed after the access
// hop back to the client.
func (n *Network) failRequest(nid topology.NodeID, id catalog.ID, req *pendingRequest) {
	n.failedRequests++
	result := RequestResult{
		Content:     id,
		Router:      nid,
		IssuedAt:    req.issuedAt,
		Hops:        0,
		Server:      -1,
		ServedBy:    ServedNone,
		Failed:      true,
		CompletedAt: n.nowAt(nid) + n.opts.AccessLatency,
		Req:         req.req,
	}
	if err := n.schedFrom(nid, nid, n.opts.AccessLatency, func() { req.done(result) }); err != nil {
		panic(fmt.Sprintf("ccn: scheduling failure completion: %v", err))
	}
}

// Request schedules a client request for content id at the given router,
// issued at the router's engine's current time, and allocates its
// identity: a monotonic 1-based per-network ID in issue order. Every
// trace event caused by this request's lifecycle carries the same ID,
// and the completion's RequestResult.Req echoes it. done fires when the
// data reaches the client. The shared counter would race across shards,
// so requests on a multi-engine network go through RequestWithID.
func (n *Network) Request(router topology.NodeID, id catalog.ID, done func(RequestResult)) error {
	if len(n.engs) > 1 {
		return fmt.Errorf("ccn: sharded network requires RequestWithID (precomputed request identity)")
	}
	n.nextReq++
	if err := n.RequestWithID(router, id, n.nextReq, done); err != nil {
		n.nextReq--
		return err
	}
	return nil
}

// RequestWithID is Request with a caller-supplied request identity; the
// caller owns uniqueness and issue-ordering of the IDs. Run drivers that
// number requests themselves use it, as must every caller on a sharded
// network, where IDs are precomputed in global issue order.
func (n *Network) RequestWithID(router topology.NodeID, id catalog.ID, reqID int64, done func(RequestResult)) error {
	if !n.attached {
		return fmt.Errorf("ccn: origin not attached; call AttachOriginAt or AttachOriginUniform")
	}
	if int(router) < 0 || int(router) >= len(n.nodes) {
		return fmt.Errorf("ccn: unknown router %d", router)
	}
	if !n.cat.Contains(id) {
		return fmt.Errorf("ccn: content %d outside catalog", id)
	}
	if done == nil {
		done = func(RequestResult) {}
	}
	req := &pendingRequest{issuedAt: n.nowAt(router), done: done, req: reqID}
	// The interest reaches the first-hop router after the access
	// latency.
	return n.schedFrom(router, router, n.opts.AccessLatency, func() {
		n.handleInterest(router, id, pitFace{request: req, req: req.req})
	})
}

// handleInterest processes an interest for id arriving at router nid
// from the given downstream face.
func (n *Network) handleInterest(nid topology.NodeID, id catalog.ID, from pitFace) {
	nd := n.nodes[nid]
	if n.crashedRouter(nid) {
		// A crashed router blackholes interests. Client requests fail
		// immediately (their first-hop router is gone); neighbor faces
		// are covered by the downstream router's retry timer.
		n.faultDrops++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindDrop, Router: int(nid), Content: int64(id), Detail: "fault", Req: from.req})
		}
		if from.request != nil {
			n.failRequest(nid, id, from.request)
		}
		return
	}
	if nd.cs.Lookup(id) {
		// Content store hit: data flows back to the arriving face
		// immediately. Hops accumulate on the way down.
		nd.csHits++
		n.respond(nid, id, from, 0, nid)
		return
	}
	if n.degraded && nd.deg != nil && nd.deg.Lookup(id) {
		// Degraded-mode overlay hit: an autonomous en-route copy cached
		// while coordination is down serves like any content-store hit.
		nd.csHits++
		n.degradedServes++
		n.respond(nid, id, from, 0, nid)
		return
	}
	nd.csMisses++
	if entry, ok := nd.pit[id]; ok {
		// Interest aggregation: the content is already on its way. An
		// equal Req/N pair marks a retransmitted interest rejoining its
		// own entry, not a true aggregation.
		nd.aggregated++
		entry.faces = append(entry.faces, from)
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindAggregate, Router: int(nid), Content: int64(id), Req: from.req, N: entry.primaryReq})
		}
		return
	}
	entry := &pitEntry{faces: []pitFace{from}, attempts: 1, primaryReq: from.req}
	nd.pit[id] = entry
	if len(nd.pit) > nd.pitPeak {
		nd.pitPeak = len(nd.pit)
	}
	nd.forwarded++
	n.sendUpstream(nid, id, false, from.req, "")
	n.armRetx(nid, id, entry)
}

// sendUpstream forwards an interest from nid toward its upstream: the
// coordinated owner if the directory knows one and a route to it
// exists, otherwise the origin. forceOrigin bypasses the directory —
// the graceful-degradation path late in a retry budget. req/cause
// carry the causal request identity and send qualifier ("", "retx",
// "fallback") onto the emitted interest events.
func (n *Network) sendUpstream(nid topology.NodeID, id catalog.ID, forceOrigin bool, req int64, cause string) {
	// In degraded mode the directory reflects a coordination state that
	// can no longer be trusted at all: skip it and go straight to the
	// origin (bounded-staleness forwarding degenerated to autonomy).
	if !forceOrigin && n.opts.Directory != nil && !n.degraded {
		if owner, ok := n.opts.Directory.Owner(id); ok && owner != nid {
			if next := n.lat.Next(nid, owner); next >= 0 {
				if n.placementsStale {
					n.stalePlacementHits++
				}
				n.forwardInterest(nid, next, id, req, cause)
				return
			}
			// The owner is unreachable (crashed or partitioned): fall
			// through to the origin.
		}
	}
	n.forwardToOrigin(nid, id, req, cause)
}

// armRetx schedules the bounded interest-retransmission timer for
// nid's pending entry. Each retry backs off exponentially (with
// optional jitter); once the budget is exhausted the entry expires and
// client requests fail. Late retries past OriginFallbackRetries bypass
// the directory so a dead owner degrades to the origin instead of
// spinning.
func (n *Network) armRetx(nid topology.NodeID, id catalog.ID, entry *pitEntry) {
	if !n.retxActive() {
		return
	}
	exp := entry.attempts - 1
	if exp > maxBackoffExponent {
		exp = maxBackoffExponent
	}
	delay := n.opts.RetxTimeout * math.Pow(n.opts.RetxBackoff, float64(exp))
	if n.opts.RetxJitter > 0 {
		delay *= 1 + n.opts.RetxJitter*n.rng.Float64()
	}
	if err := n.schedFrom(nid, nid, delay, func() {
		nd := n.nodes[nid]
		if cur, pending := nd.pit[id]; !pending || cur != entry {
			return // satisfied or flushed; the chain ends
		}
		if n.crashedRouter(nid) {
			return // the router died after arming; flushPIT handled it
		}
		if entry.attempts > n.opts.MaxRetries {
			// Budget exhausted: expire the entry. Client faces fail;
			// neighbor faces are covered by their own routers' timers.
			delete(nd.pit, id)
			n.expiredEntries++
			if n.opts.Tracer != nil {
				n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindExpire, Router: int(nid), Content: int64(id), N: int64(entry.attempts), Req: entry.primaryReq})
			}
			for _, f := range entry.faces {
				if f.request != nil {
					n.failRequest(nid, id, f.request)
				}
			}
			return
		}
		n.retransmissions++
		entry.attempts++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindRetry, Router: int(nid), Content: int64(id), N: int64(entry.attempts), Req: entry.primaryReq})
		}
		forceOrigin := n.opts.Faults && n.opts.OriginFallbackRetries > 0 &&
			entry.attempts > 1+n.opts.OriginFallbackRetries
		cause := "retx"
		if forceOrigin {
			cause = "fallback"
		}
		n.sendUpstream(nid, id, forceOrigin, entry.primaryReq, cause)
		n.armRetx(nid, id, entry)
	}); err != nil {
		panic(fmt.Sprintf("ccn: scheduling retransmission: %v", err))
	}
}

// lost draws the loss process for one transmission.
func (n *Network) lost() bool {
	return n.opts.LossRate > 0 && n.rng.Float64() < n.opts.LossRate
}

// dataDelay returns the delay until data transmitted from router 'from'
// arrives at 'to' (propagation given), reserving the directed link's
// transmitter: on finite-capacity links the packet first waits for the
// transmitter FIFO, then serializes for 1/LinkRate ms.
func (n *Network) dataDelay(from, to topology.NodeID, propagation float64) float64 {
	if n.linkBusy == nil {
		return propagation
	}
	key := [2]topology.NodeID{from, to}
	now := n.nowAt(from)
	ser := 1 / n.opts.LinkRate
	start := now
	if busy := n.linkBusy[key]; busy > start {
		start = busy
	}
	if wait := start - now; wait > 0 {
		n.queueingTotal += wait
		n.queuedPackets++
	}
	n.linkBusy[key] = start + ser
	return (start - now) + ser + propagation
}

// originDataDelay returns the round-trip delay of an origin fetch from
// router nid: interest propagation up, then FIFO queueing and
// serialization on the origin's downlink, then data propagation down.
func (n *Network) originDataDelay(nid topology.NodeID) float64 {
	up := n.originLatency
	if n.linkBusy == nil {
		return 2 * up
	}
	key := [2]topology.NodeID{nid, originNeighbor}
	ser := 1 / n.opts.LinkRate
	ready := n.nowAt(nid) + up // when the interest reaches the origin
	start := ready
	if busy := n.linkBusy[key]; busy > start {
		start = busy
	}
	if wait := start - ready; wait > 0 {
		n.queueingTotal += wait
		n.queuedPackets++
	}
	n.linkBusy[key] = start + ser
	return (start + ser + up) - n.nowAt(nid)
}

// MeanQueueingDelay returns the mean link-queueing wait per data
// transmission (0 on infinite-capacity fabrics).
func (n *Network) MeanQueueingDelay() float64 {
	data := n.DataTransmissions()
	if data == 0 {
		return 0
	}
	return n.queueingTotal / float64(data)
}

// QueuedPackets returns how many data transmissions had to wait for a
// busy link transmitter.
func (n *Network) QueuedPackets() int64 { return n.queuedPackets }

// forwardToOrigin sends the interest one hop toward the origin server.
// When the origin gateway is unreachable the interest is blackholed;
// the PIT entry's retry timer bounds the damage.
func (n *Network) forwardToOrigin(nid topology.NodeID, id catalog.ID, req int64, cause string) {
	if n.uniformOrigin || nid == n.originRouter {
		// Uplink directly to the origin, which always has the content.
		// The uplink interest and the returning data are each subject to
		// loss.
		n.txAt(nid).interests++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindInterest, Router: int(nid), Peer: -1, Content: int64(id), Req: req, Cause: cause})
		}
		if n.lost() {
			n.droppedInterests++
			if n.opts.Tracer != nil {
				n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindDrop, Router: int(nid), Peer: -1, Content: int64(id), Detail: "loss-interest", Req: req})
			}
			return
		}
		dataLost := n.lost() // drawn now to keep the sequence deterministic
		// The origin round trip starts and ends at nid, so the fetch is
		// shard-local whatever the partition.
		if err := n.schedFrom(nid, nid, n.originDataDelay(nid), func() {
			// Data arrives back at this router after the uplink round
			// trip; the uplink itself counts as one hop.
			n.txAt(nid).data++
			if n.opts.Tracer != nil {
				n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindData, Router: -1, Peer: int(nid), Content: int64(id), Hops: 1, Req: req})
			}
			if dataLost {
				n.droppedData++
				if n.opts.Tracer != nil {
					n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindDrop, Router: -1, Peer: int(nid), Content: int64(id), Detail: "loss-data", Req: req})
				}
				return
			}
			n.dataArrival(nid, id, 1, -1, req)
		}); err != nil {
			panic(fmt.Sprintf("ccn: scheduling origin fetch: %v", err))
		}
		return
	}
	next := n.lat.Next(nid, n.originRouter)
	if next < 0 {
		// Partitioned from the origin gateway: nowhere to send.
		n.faultDrops++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindDrop, Router: int(nid), Peer: -1, Content: int64(id), Detail: "fault", Req: req})
		}
		return
	}
	n.forwardInterest(nid, next, id, req, cause)
}

// forwardInterest transmits an interest from nid to neighbor next.
func (n *Network) forwardInterest(nid, next topology.NodeID, id catalog.ID, req int64, cause string) {
	linkLat, err := n.graph.EdgeLatency(nid, next)
	if err != nil {
		panic(fmt.Sprintf("ccn: forwarding over missing link %d-%d: %v", nid, next, err))
	}
	if n.linkDown(nid, next) {
		// The link died under an in-flight forwarding decision; the
		// retry timer recovers over the recomputed route.
		n.faultDrops++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindDrop, Router: int(nid), Peer: int(next), Content: int64(id), Detail: "fault", Req: req})
		}
		return
	}
	n.txAt(nid).interests++
	if n.opts.Tracer != nil {
		n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindInterest, Router: int(nid), Peer: int(next), Content: int64(id), Req: req, Cause: cause})
	}
	if n.lost() {
		n.droppedInterests++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindDrop, Router: int(nid), Peer: int(next), Content: int64(id), Detail: "loss-interest", Req: req})
		}
		return
	}
	if err := n.schedFrom(nid, next, linkLat, func() {
		n.handleInterest(next, id, pitFace{neighbor: nid, req: req})
	}); err != nil {
		panic(fmt.Sprintf("ccn: scheduling interest: %v", err))
	}
}

// dataArrival handles data for id arriving at router nid from upstream.
// hops is the number of network links the data has traversed from the
// serving point; server identifies the serving router (-1 for the
// origin). The node applies its on-path caching decision and forwards
// the data to every PIT face, each leg carrying its own face's request
// identity.
func (n *Network) dataArrival(nid topology.NodeID, id catalog.ID, hops int, server topology.NodeID, req int64) {
	nd := n.nodes[nid]
	if n.crashedRouter(nid) {
		// Data reaching a crashed router is lost; its PIT was flushed
		// at crash time, so nothing downstream waits on this copy here.
		n.faultDrops++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindDrop, Router: int(nid), Content: int64(id), Detail: "fault", Req: req})
		}
		return
	}
	if n.degraded && nd.deg != nil {
		// Degraded mode overrides the configured caching decision with
		// autonomous LCE into the overlay: every router on the return
		// path keeps a copy, the classic en-route fallback.
		nd.deg.Insert(id)
	} else {
		switch n.opts.Mode {
		case CacheLCE:
			nd.cs.Insert(id)
		case CacheLCD:
			// Only the first router below the serving point admits.
			if hops == 1 {
				nd.cs.Insert(id)
			}
		case CacheProb:
			if n.rng.Float64() < n.opts.CacheProbability {
				nd.cs.Insert(id)
			}
		}
	}
	entry, ok := nd.pit[id]
	if !ok {
		return // stale data (e.g. PIT satisfied by a CS hit meanwhile)
	}
	delete(nd.pit, id)
	for _, f := range entry.faces {
		n.respond(nid, id, f, hops, server)
	}
}

// respond sends data for id from router nid to one downstream face:
// either completing a client request or forwarding one hop down.
func (n *Network) respond(nid topology.NodeID, id catalog.ID, f pitFace, hops int, server topology.NodeID) {
	if f.request != nil {
		req := f.request
		result := RequestResult{
			Content:     id,
			Router:      nid,
			IssuedAt:    req.issuedAt,
			Hops:        hops,
			Server:      server,
			ServedBy:    tierOf(hops, server, nid),
			CompletedAt: n.nowAt(nid) + n.opts.AccessLatency,
			Req:         req.req,
		}
		if err := n.schedFrom(nid, nid, n.opts.AccessLatency, func() { req.done(result) }); err != nil {
			panic(fmt.Sprintf("ccn: scheduling completion: %v", err))
		}
		return
	}
	next := f.neighbor
	linkLat, err := n.graph.EdgeLatency(nid, next)
	if err != nil {
		panic(fmt.Sprintf("ccn: returning data over missing link %d-%d: %v", nid, next, err))
	}
	if n.linkDown(nid, next) {
		// The reverse-path link is down; the downstream router's retry
		// timer re-fetches over the recomputed route.
		n.faultDrops++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindDrop, Router: int(nid), Peer: int(next), Content: int64(id), Detail: "fault", Req: f.req})
		}
		return
	}
	n.txAt(nid).data++
	if n.opts.Tracer != nil {
		n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindData, Router: int(nid), Peer: int(next), Content: int64(id), Hops: hops, Req: f.req})
	}
	if n.lost() {
		// The downstream router's retransmission timer recovers the
		// loss.
		n.droppedData++
		if n.opts.Tracer != nil {
			n.opts.Tracer.Emit(trace.Event{T: n.nowAt(nid), Kind: trace.KindDrop, Router: int(nid), Peer: int(next), Content: int64(id), Detail: "loss-data", Req: f.req})
		}
		return
	}
	h := hops + 1
	if err := n.schedFrom(nid, next, n.dataDelay(nid, next, linkLat), func() {
		n.dataArrival(next, id, h, server, f.req)
	}); err != nil {
		panic(fmt.Sprintf("ccn: scheduling data: %v", err))
	}
}

// tierOf classifies which tier served a request completed at router nid.
func tierOf(hops int, server, nid topology.NodeID) ServerKind {
	switch {
	case server == -1:
		return ServedOrigin
	case hops == 0 && server == nid:
		return ServedLocal
	default:
		return ServedPeer
	}
}
