package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one value = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio mishandles a zero or plain denominator")
	}
}

// TestSelfTimes checks self time = span minus the union of its children,
// with overlapping children counted once and a child running past its
// parent clipped to the parent.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "api", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "api", Start: 30, End: 50}, // overlaps span 2
		{ID: 4, Parent: 1, Layer: "store", Start: 90, End: 120},
		{ID: 5, Parent: 2, Layer: "sim", Start: 15, End: 25},
	}}
	got := tr.selfTimes()
	want := map[string]time.Duration{
		"bench": 100 - 40 - 10, // children cover [10,50) and [90,100)
		"api":   30 - 10 + 20,
		"store": 30,
		"sim":   10,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "bench", "x")
	if id != 0 || tr.end(id) != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

// TestPhaseTimePaced holds the paced time to the wall time when every
// chunk takes as long, and keeps it there when one chunk is slowed.
func TestPhaseTimePaced(t *testing.T) {
	const n = 10 * paceChunk
	at := func(slow time.Duration) []time.Duration {
		doneAt := make([]time.Duration, n)
		for i := range doneAt {
			doneAt[i] = time.Duration(i+1) * time.Millisecond
			if i >= 3*paceChunk {
				doneAt[i] += slow // the fourth chunk took slow longer
			}
		}
		// Completions arrive slightly out of order from two clients.
		doneAt[5], doneAt[6] = doneAt[6], doneAt[5]
		return doneAt
	}
	even := phaseTimeOf(at(0))
	if even.wall != n*time.Millisecond || even.paced != even.wall {
		t.Errorf("even phase: %+v, want wall = paced = %v", even, n*time.Millisecond)
	}
	burst := phaseTimeOf(at(time.Second))
	if burst.wall != even.wall+time.Second || burst.paced != even.paced {
		t.Errorf("phase with one slow chunk: %+v, want wall %v and paced %v", burst, even.wall+time.Second, even.paced)
	}
	if got := phaseTimeOf(at(0)[:paceChunk/2]); got.paced != got.wall {
		t.Errorf("phase shorter than a chunk: %+v, want paced = wall", got)
	}
}
