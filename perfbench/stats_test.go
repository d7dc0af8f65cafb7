package main

import (
	"math"
	"testing"

	"edgeshed/internal/obs"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		med    float64
		q1, q3 float64
		python string
	}{
		// Quartiles as Python's statistics.quantiles(xs, n=4) gives them.
		{[]float64{3, 1, 2}, 2, 1, 3, "quantiles([1,2,3]) = [1.0, 2.0, 3.0]"},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75, "quantiles([1,2,3,4]) = [1.25, 2.5, 3.75]"},
		{[]float64{1, 2}, 1.5, 0.75, 2.25, "quantiles([1,2]) = [0.75, 1.5, 2.25]"},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25, "quantiles(range(1,11)) = [2.75, 5.5, 8.25]"},
		{[]float64{7}, 7, 7, 7, "a single value is every quantile"},
		{nil, 0, 0, 0, "no values"},
	} {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if q1, q3 := quartiles(c.xs); math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v (%s)", c.xs, q1, q3, c.q1, c.q3, c.python)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median or quartiles reordered their input: %v", xs)
	}
}

func TestBatchFill(t *testing.T) {
	for _, c := range []struct {
		sources, batches int64
		width            int
		want             float64
	}{
		{64, 16, 64, 0.0625},   // 64 samples split over 16 shards
		{16, 16, 64, 0.015625}, // 16 samples, one per batch
		{1024, 16, 64, 1},      // full batches
		{0, 0, 64, 0},          // no betweenness ran
	} {
		if got := batchFill(c.sources, c.batches, c.width); got != c.want {
			t.Errorf("batchFill(%d, %d, %d) = %v, want %v", c.sources, c.batches, c.width, got, c.want)
		}
	}
}

// span builds a span tree node of dur ns.
func span(name string, dur int64, children ...*obs.SpanNode) *obs.SpanNode {
	return &obs.SpanNode{Name: name, DurNs: dur, Children: children}
}

func TestLayerMetricsSingleReduce(t *testing.T) {
	// CRR.Reduce: the rank span holds the betweenness call.
	tree := span("replay", 2_000_000_000,
		span("crr.reduce", 1_000_000_000,
			span("crr.phase1.rank", 600_000_000, span("betweenness", 500_000_000)),
			span("crr.phase2.rewire", 300_000_000)))
	ctr := map[string]int64{
		"betweenness.sources_done": 64, "msbfs.batches_done": 16,
		"crr.rewire.attempts": 1000, "crr.rewire.accepted": 50,
		"brandes.edge_folds": 7, "msbfs.words_scanned": 9,
	}
	m := make(map[string]float64)
	layerMetrics(m, tree, ctr)
	want := map[string]float64{
		"centrality.betweenness_s":       0.5,
		"centrality.batch_fill":          0.0625,
		"centrality.edge_folds":          7,
		"centrality.words_scanned":       9,
		"core.crr_rank_s":                0.1, // 0.6 s less the 0.5 s betweenness child
		"core.crr_rewire_s":              0.3,
		"core.crr_rewire_ns_per_attempt": 300_000,
		"core.crr_accept_frac":           0.05,
		"core.reduce_other_s":            0.1, // 1 s less rank and rewire
		"core.bm2_bipartite_s":           0,
		"matching.bmatching_s":           0,
		"matching.pq_ops":                0,
		"par.sweep_busy_frac":            0,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestLayerMetricsSweepAndBM2(t *testing.T) {
	// CRR.Sweep: betweenness once under the sweep, then ratios fanned out
	// over two workers busy 0.7 s and 0.5 s of the 0.8 s fan-out.
	sweep := span("crr.sweep", 1_000_000_000,
		span("betweenness", 200_000_000),
		span("crr.reduce", 400_000_000, span("crr.phase1.rank", 100_000_000), span("crr.phase2.rewire", 250_000_000)),
		span("crr.reduce", 500_000_000, span("crr.phase1.rank", 100_000_000), span("crr.phase2.rewire", 350_000_000)))
	sweep.WorkerBusyNs = []int64{700_000_000, 500_000_000}
	m := make(map[string]float64)
	layerMetrics(m, span("replay", 2_000_000_000, sweep), nil)
	for k, v := range map[string]float64{
		"core.crr_rank_s":     0.2, // rank spans have no children in a sweep
		"core.crr_rewire_s":   0.6,
		"core.reduce_other_s": 0.1,
		"par.sweep_busy_frac": 0.75, // 1.2 s busy / (2 workers × 0.8 s)
	} {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("sweep: %s = %v, want %v", k, m[k], v)
		}
	}

	bm2 := span("replay", 1_000_000_000,
		span("bm2.reduce", 400_000_000, span("bm2.bmatching", 100_000_000), span("bm2.bipartite", 250_000_000)))
	m = make(map[string]float64)
	layerMetrics(m, bm2, map[string]int64{"flatpq.pushes": 5, "flatpq.pops": 3, "flatpq.updates": 2, "flatpq.removes": 1})
	for k, v := range map[string]float64{
		"matching.bmatching_s":  0.1,
		"core.bm2_bipartite_s":  0.25,
		"core.reduce_other_s":   0.05,
		"matching.pq_ops":       11,
		"centrality.batch_fill": 0,
	} {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("bm2: %s = %v, want %v", k, m[k], v)
		}
	}
}

func TestWindowBracketsSpan(t *testing.T) {
	pts := []memPoint{{t: 0, minflt: 0}, {t: 10, minflt: 5}, {t: 20, minflt: 50}, {t: 30, minflt: 60}, {t: 40, minflt: 61}}
	a, b := window(pts, 12, 28)
	if a.t != 10 || b.t != 30 {
		t.Fatalf("window(12, 28) = [%v, %v], want [10, 30]", a.t, b.t)
	}
	if flt, _ := memDelta(a, b); flt != 55 {
		t.Errorf("faults over the window = %v, want 55", flt)
	}
}
