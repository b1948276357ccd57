package des

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var got []int
	mustSchedule(t, &e, 5, func() { got = append(got, 2) })
	mustSchedule(t, &e, 1, func() { got = append(got, 1) })
	mustSchedule(t, &e, 9, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("event order = %v, want [1 2 3]", got)
	}
	if e.Now() != 9 {
		t.Errorf("clock = %v, want 9", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("processed = %d, want 3", e.Processed())
	}
}

func mustSchedule(t *testing.T, e *Engine, delay float64, fn func()) {
	t.Helper()
	if err := e.Schedule(delay, fn); err != nil {
		t.Fatal(err)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		mustSchedule(t, &e, 3, func() { got = append(got, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(got) {
		t.Errorf("same-instant events fired out of order: %v", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []float64
	mustSchedule(t, &e, 1, func() {
		times = append(times, e.Now())
		if err := e.Schedule(2, func() { times = append(times, e.Now()) }); err != nil {
			t.Error(err)
		}
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Errorf("times = %v, want [1 3]", times)
	}
}

func TestScheduleErrors(t *testing.T) {
	var e Engine
	if err := e.Schedule(-1, func() {}); err == nil {
		t.Error("negative delay should fail")
	}
	if err := e.At(0, nil); err == nil {
		t.Error("nil callback should fail")
	}
	mustSchedule(t, &e, 5, func() {})
	e.Run()
	if err := e.At(1, func() {}); err == nil {
		t.Error("scheduling in the past should fail")
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	fired := 0
	mustSchedule(t, &e, 1, func() { fired++ })
	mustSchedule(t, &e, 5, func() { fired++ })
	mustSchedule(t, &e, 10, func() { fired++ })
	e.RunUntil(5)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v, want 5", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(100)
	if fired != 3 || e.Now() != 100 {
		t.Errorf("after drain: fired=%d now=%v", fired, e.Now())
	}
}

// TestQuickMonotoneClock property: for any set of delays, events fire in
// nondecreasing time order.
func TestQuickMonotoneClock(t *testing.T) {
	f := func(delays []uint16) bool {
		var e Engine
		var times []float64
		for _, d := range delays {
			d := float64(d)
			if err := e.Schedule(d, func() { times = append(times, e.Now()) }); err != nil {
				return false
			}
		}
		e.Run()
		return sort.Float64sAreSorted(times) && len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1000; j++ {
			_ = e.Schedule(float64(j%97), func() {})
		}
		e.Run()
	}
}

func TestPendingPeak(t *testing.T) {
	var e Engine
	if e.PendingPeak() != 0 {
		t.Errorf("fresh engine peak = %d, want 0", e.PendingPeak())
	}
	noop := func() {}
	for i := 1; i <= 5; i++ {
		if err := e.Schedule(float64(i), noop); err != nil {
			t.Fatal(err)
		}
	}
	if e.PendingPeak() != 5 {
		t.Errorf("peak after 5 schedules = %d, want 5", e.PendingPeak())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("pending after run = %d", e.Pending())
	}
	if e.PendingPeak() != 5 {
		t.Errorf("peak must not decay after the queue drains, got %d", e.PendingPeak())
	}
	// One more event cannot lower the recorded peak.
	if err := e.Schedule(1, noop); err != nil {
		t.Fatal(err)
	}
	if e.PendingPeak() != 5 {
		t.Errorf("peak = %d after a single new event, want 5", e.PendingPeak())
	}
}

// TestStandaloneScheduleTo: a zero-value engine is its own one-engine
// run, so a send to engine 0 is a plain Schedule and any other
// destination is out of range.
func TestStandaloneScheduleTo(t *testing.T) {
	var e Engine
	fired := 0
	if err := e.ScheduleTo(0, 3, func() { fired++ }); err != nil {
		t.Fatalf("local send on a standalone engine: %v", err)
	}
	if err := e.ScheduleTo(1, 3, func() {}); err == nil {
		t.Error("send to engine 1 of a standalone engine should fail")
	}
	e.Run()
	if fired != 1 || e.Now() != 3 {
		t.Errorf("after drain: fired=%d now=%v, want 1 and 3", fired, e.Now())
	}
}
