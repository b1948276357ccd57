package main

import (
	"strings"
	"testing"
)

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := summarize(xs)
	if d.N != 200 || d.P50 != 100 || d.P99 != 198 || d.Max != 200 {
		t.Fatalf("summarize(1..200) = %+v", d)
	}
	if xs[0] != 200 {
		t.Fatal("summarize reordered its input")
	}
}

func TestDistStatesSampleCount(t *testing.T) {
	s := summarize([]float64{3, 1, 2}).String()
	for _, want := range []string{"n=3", "0 beyond p99"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q lacks %q", s, want)
		}
	}
	if s := summarize(make([]float64, 1000)).String(); !strings.Contains(s, "10 beyond p99") {
		t.Errorf("%q lacks the count beyond p99", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if d := summarize(nil); d.N != 0 || d.P50 != 0 {
		t.Fatalf("summarize(nil) = %+v", d)
	}
}

func TestProcessCounters(t *testing.T) {
	if rss, err := peakRSSMB(0); err != nil || !(rss > 0) {
		t.Fatalf("peakRSSMB = %v, %v", rss, err)
	}
	if selfCPU() <= 0 {
		t.Fatal("selfCPU reads no CPU time")
	}
}
