package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ccncoord/internal/timeline"
	"ccncoord/internal/topology"
)

// TestRunTimelineInstallRecord checks a coordinated run with a timeline
// ring records exactly one placement-installation epoch whose measured
// message count matches the run's coordination accounting and stays
// within the model's 2*n*x budget.
func TestRunTimelineInstallRecord(t *testing.T) {
	sc := testScenario()
	sc.Requests = 10000
	sc.EmitManifest = true
	ring := timeline.NewRing(16)
	sc.Timeline = ring
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	tl := ring.Snapshot()
	if len(tl.Records) != 1 {
		t.Fatalf("timeline holds %d records after one run, want 1", len(tl.Records))
	}
	rec := tl.Records[0]
	if rec.Epoch != 1 {
		t.Errorf("install record epoch = %d, want 1", rec.Epoch)
	}
	if rec.Messages != res.CoordMessages {
		t.Errorf("record messages = %d, run accounted %d", rec.Messages, res.CoordMessages)
	}
	if rec.Messages > rec.BoundMessages {
		t.Errorf("measured %d messages above the model bound %d", rec.Messages, rec.BoundMessages)
	}
	n := int64(sc.Topology.N())
	if want := 2 * n * rec.CoordSlots; rec.BoundMessages != want {
		t.Errorf("bound = %d, want 2*n*x_eff = %d", rec.BoundMessages, want)
	}
	if rec.MessagesUp+rec.MessagesDown != rec.Messages {
		t.Errorf("direction split %d+%d != %d", rec.MessagesUp, rec.MessagesDown, rec.Messages)
	}
	if rec.WallMs != 0 {
		t.Errorf("install record wall time = %g, must stay zero for determinism", rec.WallMs)
	}
	if rec.Churn <= 0 {
		t.Errorf("first installation churn = %d, want every coordinated content counted", rec.Churn)
	}
	if res.Manifest == nil {
		t.Fatal("manifest missing")
	}
	if !reflect.DeepEqual(res.Manifest.Timeline, tl.Records) {
		t.Errorf("manifest timeline %+v diverges from ring %+v", res.Manifest.Timeline, tl.Records)
	}
}

// TestRunTimelineDeterministic pins that two identical runs append
// byte-identical records — the batch install path never touches a wall
// clock.
func TestRunTimelineDeterministic(t *testing.T) {
	run := func() []timeline.EpochRecord {
		sc := testScenario()
		sc.Requests = 5000
		ring := timeline.NewRing(4)
		sc.Timeline = ring
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
		return ring.Snapshot().Records
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Errorf("install records differ across identical runs:\na: %+v\nb: %+v", a, b)
	}
}

// TestManifestOmitsTelemetryWhenOff is the byte-identity guard: with
// Timeline nil and EngineTelemetry false the manifest JSON must not
// contain any of the new sections, at any shard width.
func TestManifestOmitsTelemetryWhenOff(t *testing.T) {
	for _, shards := range []int{1, 4} {
		sc := testScenario()
		sc.Requests = 5000
		sc.Shards = shards
		sc.EmitManifest = true
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var buf bytes.Buffer
		if err := res.Manifest.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"timeline"`, `"windows"`, `"shard_stats"`, `"cross_shard_matrix"`, `"mean_window_span_ms"`} {
			if strings.Contains(buf.String(), key) {
				t.Errorf("shards=%d: telemetry-off manifest contains %s", shards, key)
			}
		}
	}
}

// TestSerialEngineTelemetryOmitted pins the manifest rule for one-engine
// runs: there are no windows, shards or cross-shard traffic to report,
// so EngineTelemetry on a width-1 run leaves the window, per-shard and
// matrix fields out and the manifest byte-identical to a telemetry-off
// run's.
func TestSerialEngineTelemetryOmitted(t *testing.T) {
	manifest := func(telemetry bool) []byte {
		sc := testScenario()
		sc.Requests = 5000
		sc.Shards = 1
		sc.EmitManifest = true
		sc.EngineTelemetry = telemetry
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Manifest.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	on := manifest(true)
	for _, key := range []string{`"windows"`, `"mean_window_span_ms"`, `"shard_stats"`, `"cross_shard_matrix"`} {
		if bytes.Contains(on, []byte(key)) {
			t.Errorf("width-1 telemetry manifest contains %s", key)
		}
	}
	if !bytes.Equal(on, manifest(false)) {
		t.Error("width-1 manifest changes with EngineTelemetry on")
	}
}

// TestShardedEngineTelemetryInManifest runs a sharded scenario with
// engine telemetry on and checks the manifest carries consistent window
// and per-shard accounting.
func TestShardedEngineTelemetryInManifest(t *testing.T) {
	sc := testScenario()
	sc.Requests = 10000
	sc.Shards = 4
	sc.EmitManifest = true
	sc.EngineTelemetry = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	eng := res.Manifest.Engine
	if eng.Shards != 4 {
		t.Fatalf("run resolved to %d shards, want 4 (engine: %+v)", eng.Shards, eng)
	}
	if eng.Windows == 0 {
		t.Error("telemetry manifest reports zero windows for a sharded run")
	}
	if eng.MeanWindowSpanMs <= 0 {
		t.Errorf("mean window span = %g, want positive", eng.MeanWindowSpanMs)
	}
	if len(eng.ShardStats) != eng.Shards {
		t.Fatalf("shard stats for %d shards, engine ran %d", len(eng.ShardStats), eng.Shards)
	}
	var sumProcessed uint64
	for _, ps := range eng.ShardStats {
		sumProcessed += ps.Processed
		if ps.ActiveWindows == 0 || ps.ActiveWindows > eng.Windows {
			t.Errorf("shard %d active windows %d outside (0, %d]", ps.Shard, ps.ActiveWindows, eng.Windows)
		}
	}
	if sumProcessed != eng.EventsProcessed {
		t.Errorf("per-shard processed sums to %d, engine total %d", sumProcessed, eng.EventsProcessed)
	}
	var sumMatrix uint64
	for _, row := range eng.CrossShardMatrix {
		for _, v := range row {
			sumMatrix += v
		}
	}
	if sumMatrix != eng.CrossShardEvents {
		t.Errorf("traffic matrix sums to %d, cross-shard total %d", sumMatrix, eng.CrossShardEvents)
	}
}

// TestAdaptiveRunTimeline checks the closed loop appends one record per
// coordination epoch with the measured cost inside the model budget and
// the online estimate attached.
func TestAdaptiveRunTimeline(t *testing.T) {
	g := topology.USA()
	sc := Scenario{
		Topology:      g,
		CatalogSize:   20000,
		ZipfS:         0.8,
		Capacity:      150,
		Requests:      20000,
		Seed:          5,
		AccessLatency: 5,
		OriginLatency: 60,
		OriginGateway: -1,
	}
	ring := timeline.NewRing(16)
	sc.Timeline = ring
	epochs, err := AdaptiveRun(sc, adaptiveBase(g, sc.CatalogSize, sc.Capacity), 3)
	if err != nil {
		t.Fatal(err)
	}
	tl := ring.Snapshot()
	if len(tl.Records) != len(epochs) {
		t.Fatalf("timeline holds %d records for %d adaptive epochs", len(tl.Records), len(epochs))
	}
	n := int64(g.N())
	for i, rec := range tl.Records {
		if rec.Epoch != int64(i)+1 {
			t.Errorf("record %d epoch = %d, want %d", i, rec.Epoch, i+1)
		}
		if rec.Messages <= 0 || rec.Messages > rec.BoundMessages {
			t.Errorf("epoch %d measured %d messages against bound %d", rec.Epoch, rec.Messages, rec.BoundMessages)
		}
		if want := 2 * n * rec.CoordSlots; rec.BoundMessages != want {
			t.Errorf("epoch %d bound = %d, want 2*n*x_eff = %d", rec.Epoch, rec.BoundMessages, want)
		}
		if rec.EstimatedS <= 0 {
			t.Errorf("epoch %d carries no Zipf estimate", rec.Epoch)
		}
		if rec.Messages != epochs[i].Cost.Total() {
			t.Errorf("epoch %d messages %d != loop cost %d", rec.Epoch, rec.Messages, epochs[i].Cost.Total())
		}
		if rec.Requests != int64(epochs[i].Result.Requests) {
			t.Errorf("epoch %d requests %d != measured %d", rec.Epoch, rec.Requests, epochs[i].Result.Requests)
		}
		if rec.ReportedContents <= 0 || rec.MaxReport <= 0 {
			t.Errorf("epoch %d report cardinalities = (%d, %d), want positive", rec.Epoch, rec.ReportedContents, rec.MaxReport)
		}
		if rec.WallMs != 0 {
			t.Errorf("epoch %d wall time %g, adaptive records must stay deterministic", rec.Epoch, rec.WallMs)
		}
	}
	// The first coordinated installation assigns every content fresh.
	if first := tl.Records[0]; first.Churn <= 0 {
		t.Errorf("first epoch churn = %d, want positive", first.Churn)
	}
}
