package des

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestShardedStatsAccounting checks the telemetry snapshot agrees with
// the engine's own gauges: per-shard processed counts, the cross-shard
// matrix summing to the cross-event total, and window counters.
func TestShardedStatsAccounting(t *testing.T) {
	const tokens = 24
	var tr ringTrace
	s := tr.drainSharded(4, tokens)
	st := s.Stats()

	if st.Shards != 4 || st.Lookahead != 1.0 {
		t.Errorf("stats header = (shards %d, lookahead %g), want (4, 1)", st.Shards, st.Lookahead)
	}
	if st.Windows == 0 {
		t.Error("multi-shard run executed zero windows")
	}
	if st.FirstWindowAt > st.LastWindowAt {
		t.Errorf("window span inverted: first %g > last %g", st.FirstWindowAt, st.LastWindowAt)
	}
	if st.Windows > 1 && st.MeanWindowSpanMs <= 0 {
		t.Errorf("mean window span = %g over %d windows, want positive", st.MeanWindowSpanMs, st.Windows)
	}
	if st.CrossShardEvents != s.CrossShardEvents() {
		t.Errorf("stats cross events %d != gauge %d", st.CrossShardEvents, s.CrossShardEvents())
	}
	var sumProcessed, sumMatrix uint64
	for i, ps := range st.PerShard {
		if ps.Shard != i {
			t.Errorf("per-shard entry %d labeled %d", i, ps.Shard)
		}
		if ps.Processed != s.Shard(i).Processed() {
			t.Errorf("shard %d processed %d in stats, %d on the shard", i, ps.Processed, s.Shard(i).Processed())
		}
		if ps.ActiveWindows == 0 || ps.ActiveWindows > st.Windows {
			t.Errorf("shard %d active windows %d outside (0, %d]", i, ps.ActiveWindows, st.Windows)
		}
		if ps.BusyWallMs != 0 || ps.BarrierWaitWallMs != 0 {
			t.Errorf("shard %d wall timing (%g, %g) collected without EnableTelemetry", i, ps.BusyWallMs, ps.BarrierWaitWallMs)
		}
		sumProcessed += ps.Processed
	}
	if sumProcessed != s.Processed() {
		t.Errorf("per-shard processed sums to %d, aggregate %d", sumProcessed, s.Processed())
	}
	if st.CrossShardMatrix == nil {
		t.Fatal("ring workload crossed shards but the matrix is omitted")
	}
	for i, row := range st.CrossShardMatrix {
		if row[i] != 0 {
			t.Errorf("matrix diagonal [%d][%d] = %d, local sends must not count", i, i, row[i])
		}
		for _, v := range row {
			sumMatrix += v
		}
	}
	if sumMatrix != st.CrossShardEvents {
		t.Errorf("matrix sums to %d, cross-event total %d", sumMatrix, st.CrossShardEvents)
	}
}

// TestShardedStatsDeterministic pins that two identical runs produce
// identical stats (wall-clock fields are zero with telemetry off, so
// the whole struct must match).
func TestShardedStatsDeterministic(t *testing.T) {
	var a, b ringTrace
	sa := a.drainSharded(4, 24).Stats()
	sb := b.drainSharded(4, 24).Stats()
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("stats diverge across identical runs:\na: %+v\nb: %+v", sa, sb)
	}
}

// TestShardedStatsTelemetryTiming turns wall-clock timing on and checks
// it is collected without disturbing the deterministic counters.
func TestShardedStatsTelemetryTiming(t *testing.T) {
	var plain, timed ringTrace
	ref := plain.drainSharded(4, 24).Stats()

	timed.logs = make([][]float64, ringNodes)
	s, err := NewSharded(4, 1.0)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	s.EnableTelemetry()
	shardOf := func(node int) int { return node * 4 / ringNodes }
	var visit func(node, hops int) func()
	visit = func(node, hops int) func() {
		return func() {
			sh := s.Shard(shardOf(node))
			timed.logs[node] = append(timed.logs[node], sh.Now())
			if hops == 0 {
				return
			}
			next := (node + 1) % ringNodes
			if err := sh.ScheduleTo(shardOf(next), ringLatency(node), visit(next, hops-1)); err != nil {
				panic(err)
			}
		}
	}
	for tok := 0; tok < 24; tok++ {
		start := tok % ringNodes
		if err := s.Shard(shardOf(start)).At(float64(tok)*0.375, visit(start, 40)); err != nil {
			panic(err)
		}
	}
	s.Run()
	st := s.Stats()

	var busy float64
	for i := range st.PerShard {
		if st.PerShard[i].BusyWallMs < 0 || st.PerShard[i].BarrierWaitWallMs < 0 {
			t.Errorf("shard %d negative wall timing: %+v", i, st.PerShard[i])
		}
		busy += st.PerShard[i].BusyWallMs
		st.PerShard[i].BusyWallMs = 0
		st.PerShard[i].BarrierWaitWallMs = 0
	}
	if busy <= 0 {
		t.Error("telemetry run recorded zero total busy time")
	}
	if !reflect.DeepEqual(st, ref) {
		t.Errorf("telemetry perturbed the deterministic counters:\ntimed: %+v\nplain: %+v", st, ref)
	}
}

// TestShardedStatsSerialAndInfinite covers the degenerate shapes: a
// single-shard drain has no windows, and an infinite lookahead is
// sanitized so the stats always marshal to JSON.
func TestShardedStatsSerialAndInfinite(t *testing.T) {
	var tr ringTrace
	st := tr.drainSharded(1, 8).Stats()
	if st.Windows != 0 || len(st.PerShard) != 1 || st.CrossShardMatrix != nil {
		t.Errorf("serial drain stats = %+v, want no windows, one shard, no matrix", st)
	}
	if _, err := json.Marshal(st); err != nil {
		t.Errorf("marshaling serial stats: %v", err)
	}

	s, err := NewSharded(2, math.Inf(1))
	if err != nil {
		t.Fatalf("NewSharded(+Inf): %v", err)
	}
	if err := s.Shard(0).At(1, func() {}); err != nil {
		t.Fatalf("At: %v", err)
	}
	s.Run()
	ist := s.Stats()
	if ist.Lookahead != -1 {
		t.Errorf("infinite lookahead reported as %g, want the -1 sentinel", ist.Lookahead)
	}
	if _, err := json.Marshal(ist); err != nil {
		t.Errorf("marshaling infinite-lookahead stats: %v", err)
	}
}
