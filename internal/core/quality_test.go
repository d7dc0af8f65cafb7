package core

import (
	"math"
	"testing"

	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
)

// TestQualityOfFields pins QualityOf against the Result accessors it
// summarizes — exact equality, since both read the same Result — and the
// per-method theorem-bound selection.
func TestQualityOfFields(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 7)
	const p = 0.5
	for _, tc := range []struct {
		method    string
		reducer   Reducer
		boundName string
		bound     float64
	}{
		{"CRR", CRR{Seed: 1, Steps: 200}, "theorem1", CRRBound(g, p)},
		{"BM2", BM2{}, "theorem2", BM2Bound(g, p)},
		{"Random", Random{Seed: 1}, "", 0},
	} {
		res, err := tc.reducer.Reduce(g, p)
		if err != nil {
			t.Fatalf("%s: %v", tc.method, err)
		}
		q := QualityOf(res, tc.method)
		if q.P != p || q.KeptEdges != res.Reduced.NumEdges() {
			t.Errorf("%s: p=%v kept=%d, want p=%v kept=%d", tc.method, q.P, q.KeptEdges, p, res.Reduced.NumEdges())
		}
		if want := float64(res.Reduced.NumEdges()) / float64(g.NumEdges()); q.KeptFraction != want {
			t.Errorf("%s: kept_fraction = %v, want %v", tc.method, q.KeptFraction, want)
		}
		if q.Delta != res.Delta() || q.AvgDisPerNode != res.AvgDisPerNode() {
			t.Errorf("%s: Δ=%v avg=%v, want %v and %v", tc.method, q.Delta, q.AvgDisPerNode, res.Delta(), res.AvgDisPerNode())
		}
		if q.BoundName != tc.boundName || q.Bound != tc.bound {
			t.Errorf("%s: bound %q=%v, want %q=%v", tc.method, q.BoundName, q.Bound, tc.boundName, tc.bound)
		}
		wantHeadroom := 0.0
		if tc.boundName != "" {
			wantHeadroom = tc.bound - res.AvgDisPerNode()
		}
		if q.Headroom != wantHeadroom {
			t.Errorf("%s: headroom = %v, want %v", tc.method, q.Headroom, wantHeadroom)
		}
		// Two summaries of the same Result are identical bits — the property
		// the stats-vs-manifest agreement rests on.
		if q2 := QualityOf(res, tc.method); q != q2 {
			t.Errorf("%s: QualityOf not deterministic: %+v vs %+v", tc.method, q, q2)
		}
	}
}

// TestQualityRecordProbes pins the probe emission: record lands every field
// on a lowercase-prefixed probe with the right direction, and the latest
// gauge view matches the summary exactly.
func TestQualityRecordProbes(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 7)
	res, err := (CRR{Seed: 1, Steps: 200}).Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	q := QualityOf(res, "CRR")
	rec := obs.New("test")
	q.record(rec.Root(), "CRR")
	rec.Root().End()

	qv := rec.QualityValues()
	for metric, want := range map[string]float64{
		"crr.kept_edges":        float64(q.KeptEdges),
		"crr.kept_fraction":     q.KeptFraction,
		"crr.delta":             q.Delta,
		"crr.avg_dis":           q.AvgDisPerNode,
		"crr.bound.theorem1":    q.Bound,
		"crr.headroom.theorem1": q.Headroom,
	} {
		if got, ok := qv[metric]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", metric, got, ok, want)
		}
	}
	dirs := map[string]string{}
	for _, pt := range rec.QualityPoints() {
		dirs[pt.Metric] = pt.Better
		if pt.Ratio != 0.5 {
			t.Errorf("%s recorded at ratio %v, want 0.5", pt.Metric, pt.Ratio)
		}
	}
	for metric, want := range map[string]string{
		"crr.kept_edges":        "info",
		"crr.delta":             "lower",
		"crr.headroom.theorem1": "higher",
	} {
		if dirs[metric] != want {
			t.Errorf("%s direction = %q, want %q", metric, dirs[metric], want)
		}
	}

	// A bound-less method records only the four base metrics.
	rec2 := obs.New("test")
	QualityOf(res, "Random").record(rec2.Root(), "Random")
	rec2.Root().End()
	qv2 := rec2.QualityValues()
	if len(qv2) != 4 {
		t.Errorf("bound-less record produced %d gauges, want 4: %v", len(qv2), qv2)
	}
	if _, ok := qv2["random.delta"]; !ok {
		t.Errorf("random.delta missing: %v", qv2)
	}
}

// TestQualityHeadroomNonNegative pins the acceptance-criteria invariant on
// a live reduction: CRR's achieved avg |dis| beats Theorem 1, so the
// recorded headroom is ≥ 0.
func TestQualityHeadroomNonNegative(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 9)
	for _, p := range []float64{0.3, 0.5, 0.8} {
		res, err := (CRR{Seed: 2, Steps: 1000}).Reduce(g, p)
		if err != nil {
			t.Fatal(err)
		}
		q := QualityOf(res, "CRR")
		if q.Headroom < 0 || math.IsNaN(q.Headroom) {
			t.Errorf("p=%v: theorem1 headroom = %v, want >= 0", p, q.Headroom)
		}
	}
}
