package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ccncoord/internal/ccn"
	"ccncoord/internal/topology"
)

// TestRunShardedMatchesSerial is the tentpole determinism guarantee:
// the same scenario run serially and on 4 shards must produce identical
// Results — every float bit — identical observer streams (completion
// order included), and byte-identical manifests outside the Engine
// gauges (PendingPeak is approximated under sharding).
func TestRunShardedMatchesSerial(t *testing.T) {
	for _, policy := range []Policy{PolicyCoordinated, PolicyLRU} {
		var results []Result
		var manifests [][]byte
		var observed [][]ccn.RequestResult
		var engines []ManifestEngine
		for _, shards := range []int{1, 4} {
			var seen []ccn.RequestResult
			sc := testScenario()
			sc.Policy = policy
			if policy == PolicyLRU {
				// Uniform origin uplinks plus no directory would keep every
				// packet shard-local; attach the origin behind one gateway
				// so the LRU case exercises cross-shard forwarding.
				sc.OriginGateway = 0
			}
			sc.Requests = 20000
			sc.Warmup = 2000
			sc.Shards = shards
			sc.CollectReports = true
			sc.EmitManifest = true
			sc.Observer = func(r ccn.RequestResult) { seen = append(seen, r) }
			res, err := Run(sc)
			if err != nil {
				t.Fatalf("%v shards=%d: %v", policy, shards, err)
			}
			engines = append(engines, res.Manifest.Engine)
			// Blank the engine gauges before serializing: PendingPeak is
			// exact serially but a lower bound under sharding, and the
			// shard gauges differ by construction. Everything else in the
			// manifest must match to the byte.
			res.Manifest.Engine = ManifestEngine{}
			var buf bytes.Buffer
			if err := res.Manifest.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			manifests = append(manifests, buf.Bytes())
			res.Manifest = nil
			results = append(results, res)
			observed = append(observed, seen)
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%v: serial and sharded results differ:\nserial:  %+v\nsharded: %+v", policy, results[0], results[1])
		}
		if !bytes.Equal(manifests[0], manifests[1]) {
			t.Errorf("%v: serial and sharded manifests are not byte-identical outside engine gauges", policy)
		}
		if !reflect.DeepEqual(observed[0], observed[1]) {
			t.Errorf("%v: observer streams differ (completion order is not deterministic)", policy)
		}
		// The event set is identical — sharding moves events between
		// loops, it never adds or drops any.
		if engines[0].EventsProcessed != engines[1].EventsProcessed {
			t.Errorf("%v: events processed differ: serial %d, sharded %d", policy, engines[0].EventsProcessed, engines[1].EventsProcessed)
		}
		if engines[0].Shards != 1 || engines[0].CrossShardEvents != 0 {
			t.Errorf("%v: serial engine gauges = %+v, want 1 shard and 0 cross-shard events", policy, engines[0])
		}
		if engines[1].Shards != 4 {
			t.Errorf("%v: sharded run reports %d shards, want 4", policy, engines[1].Shards)
		}
		if engines[1].CrossShardEvents == 0 {
			t.Errorf("%v: sharded run reports no cross-shard events on a connected topology", policy)
		}
	}
}

// sortMergeCompletions is the full-sort merge mergeCompletions
// replaced, kept as its reference: concatenate every shard's buffer and
// sort by (CompletedAt, Req).
func sortMergeCompletions(bufs [][]ccn.RequestResult) []ccn.RequestResult {
	var all []ccn.RequestResult
	for _, b := range bufs {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].CompletedAt != all[j].CompletedAt {
			return all[i].CompletedAt < all[j].CompletedAt
		}
		return all[i].Req < all[j].Req
	})
	return all
}

// TestMergeCompletionsMatchesSort checks the linear k-way merge against
// the full-sort reference on randomized shard buffers. Completion times
// come from a few integer values, so most completions tie — at one
// router and across routers of one shard — and each buffer holds its
// ties in a random (scheduling) order, as an engine fires them.
func TestMergeCompletionsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		shards := 1 + rng.Intn(6)
		total := rng.Intn(400)
		bufs := make([][]ccn.RequestResult, shards)
		for k, req := range rng.Perm(total) {
			s := rng.Intn(shards)
			bufs[s] = append(bufs[s], ccn.RequestResult{
				Req:         int64(req + 1),
				Router:      topology.NodeID(s*4 + rng.Intn(4)),
				CompletedAt: float64(rng.Intn(1 + total/8)),
				Hops:        k,
			})
		}
		for _, b := range bufs {
			sort.SliceStable(b, func(i, j int) bool { return b[i].CompletedAt < b[j].CompletedAt })
		}
		// The reference gets its own copies: the merge reorders ties in
		// place.
		copies := make([][]ccn.RequestResult, shards)
		for s, b := range bufs {
			copies[s] = append([]ccn.RequestResult(nil), b...)
		}
		want := sortMergeCompletions(copies)
		var got []ccn.RequestResult
		mergeCompletions(bufs, func(r ccn.RequestResult) { got = append(got, r) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d shards, %d completions): merge order differs from the full sort", trial, shards, total)
		}
	}
}

// TestMergeCompletionsRejectsDisorder checks that a shard buffer out of
// CompletedAt order panics instead of silently merging in a different
// order than the full sort would.
func TestMergeCompletionsRejectsDisorder(t *testing.T) {
	bufs := [][]ccn.RequestResult{
		{{Req: 1, CompletedAt: 1}, {Req: 3, CompletedAt: 4}},
		{{Req: 2, CompletedAt: 2}, {Req: 5, CompletedAt: 3}, {Req: 4, CompletedAt: 3}, {Req: 6, CompletedAt: 2.5}},
	}
	defer func() {
		if recover() == nil {
			t.Error("merging an out-of-order shard buffer did not panic")
		}
	}()
	mergeCompletions(bufs, func(ccn.RequestResult) {})
}

// TestRttHeadroomPinned pins the latency histogram's range to the
// documented formula: a full round trip over the worst path — access
// hop, network diameter there and back, origin uplink — widened by
// rttHeadroom for retransmission tails.
func TestRttHeadroomPinned(t *testing.T) {
	sc := testScenario()
	sc.Requests = 2000
	sc.EmitManifest = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	hist, ok := res.Manifest.Metrics.Histograms["latency_ms"]
	if !ok {
		t.Fatal("manifest has no latency histogram")
	}
	maxDist := sc.Topology.ShortestPathsLatency().MaxDist()
	want := 2 * (sc.AccessLatency + 2*maxDist + sc.OriginLatency) * rttHeadroom
	if hist.Hi != want {
		t.Errorf("latency histogram range = %v, want 2*(access + 2*diameter + origin)*%d = %v", hist.Hi, rttHeadroom, want)
	}
	if hist.Lo != 0 {
		t.Errorf("latency histogram starts at %v, want 0", hist.Lo)
	}
}
