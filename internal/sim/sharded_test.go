package sim

import (
	"bytes"
	"reflect"
	"testing"

	"ccncoord/internal/ccn"
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
