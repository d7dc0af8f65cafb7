package core

import (
	"reflect"
	"testing"

	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
	"edgeshed/internal/obs"
)

// sameEdges reports whether two graphs hold exactly the same edge set, the
// bit-identity criterion for a reducer's output.
func sameEdges(t *testing.T, label string, a, b *graph.Graph) {
	t.Helper()
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatalf("%s: %d edges with obs, %d without", label, len(be), len(ae))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: edge %d differs: %v with obs, %v without", label, i, be[i], ae[i])
		}
	}
}

// TestCRRSweepBitIdenticalWithObs pins the instrumentation non-perturbation
// guarantee for the CRR sweep: attaching a live recorder must not change a
// single kept edge, at serial and parallel worker counts.
func TestCRRSweepBitIdenticalWithObs(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, 7)
	ps := []float64{0.3, 0.5, 0.7}
	for _, workers := range []int{1, 4} {
		base := CRR{Seed: 3, Steps: 200, Workers: workers}
		want, err := base.Sweep(g, ps)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New("test")
		c := base
		c.Obs = rec.Root()
		got, err := c.Sweep(g, ps)
		rec.Root().End()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			sameEdges(t, "crr.sweep", want[i].Reduced, got[i].Reduced)
		}
		// The recorder must actually have observed the run: one crr.sweep
		// span with a reduce child per ratio, plus rewiring counters.
		tree := rec.SpanTree()
		if len(tree.Children) != 1 || tree.Children[0].Name != "crr.sweep" {
			t.Fatalf("workers=%d: span tree shape %+v", workers, tree)
		}
		reduces := 0
		for _, c := range tree.Children[0].Children {
			if c.Name == "crr.reduce" {
				reduces++
			}
		}
		if reduces != len(ps) {
			t.Fatalf("workers=%d: %d crr.reduce spans, want %d", workers, reduces, len(ps))
		}
		vals := rec.CounterValues()
		if vals["crr.rewire.attempts"] == 0 {
			t.Fatalf("workers=%d: rewiring counters missing: %v", workers, vals)
		}
		// Per-ratio sweep durations and deltaChange magnitudes land in
		// histograms.
		hists := rec.HistogramValues()
		if hists["crr.sweep.ratio_ns"] == nil || hists["crr.sweep.ratio_ns"].Count != int64(len(ps)) {
			t.Fatalf("workers=%d: crr.sweep.ratio_ns = %+v, want count %d", workers, hists["crr.sweep.ratio_ns"], len(ps))
		}
		if hists["crr.delta_abs_micros"] == nil || hists["crr.delta_abs_micros"].Count == 0 {
			t.Fatalf("workers=%d: crr.delta_abs_micros missing or empty", workers)
		}
		// The quality plane recorded per ratio: the Phase 2 fold probes plus
		// the end-of-reduce summary, each tagged with its own ratio.
		perRatio := map[string]map[float64]bool{}
		for _, q := range rec.QualityPoints() {
			if perRatio[q.Metric] == nil {
				perRatio[q.Metric] = map[float64]bool{}
			}
			perRatio[q.Metric][q.Ratio] = true
		}
		for _, metric := range []string{"crr.delta", "crr.accept_rate", "crr.deg_err_linf", "crr.headroom.theorem1"} {
			for _, p := range ps {
				if !perRatio[metric][p] {
					t.Fatalf("workers=%d: quality metric %s missing at ratio %v: %v", workers, metric, p, perRatio[metric])
				}
			}
		}
	}
}

// TestCRRDeltaHistogramMatchesPerAttempt pins the Phase 2 delta
// histogram's loop-local tally: folded at the rewire flush point and after
// the loop, it snapshots exactly as observing every attempt's |Δ change|
// straight into the histogram does.
func TestCRRDeltaHistogramMatchesPerAttempt(t *testing.T) {
	g := gen.BarabasiAlbert(300, 3, 7)
	// More than rewireFlush attempts, so both fold points run.
	base := CRR{Seed: 3, Importance: ImportanceDegreeProduct, Steps: rewireFlush + 12345}
	var perAttempt obs.Histogram
	if _, err := seedCRRPhase2(base, g, 0.5, base.Seed, &perAttempt); err != nil {
		t.Fatal(err)
	}
	rec := obs.New("test")
	c := base
	c.Obs = rec.Root()
	if _, err := c.Reduce(g, 0.5); err != nil {
		t.Fatal(err)
	}
	rec.Root().End()
	got, want := rec.HistogramValues()["crr.delta_abs_micros"], perAttempt.Snapshot()
	if want.Count != int64(base.Steps) {
		t.Fatalf("reference observed %d attempts, want %d", want.Count, base.Steps)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crr.delta_abs_micros = %+v, per-attempt observation gives %+v", got, want)
	}
}

// TestBM2BitIdenticalWithObs pins the same guarantee for BM2.Reduce: the
// FlatPQ operation counters must not disturb the heap dynamics that pick the
// kept edge set.
func TestBM2BitIdenticalWithObs(t *testing.T) {
	g := gen.PlantedPartition(4, 50, 0.2, 0.02, 9)
	for _, p := range []float64{0.3, 0.6} {
		want, err := BM2{}.Reduce(g, p)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New("test")
		got, err := BM2{Obs: rec.Root()}.Reduce(g, p)
		rec.Root().End()
		if err != nil {
			t.Fatal(err)
		}
		sameEdges(t, "bm2.reduce", want.Reduced, got.Reduced)
		vals := rec.CounterValues()
		if vals["flatpq.pushes"] == 0 || vals["flatpq.pops"] == 0 {
			t.Fatalf("p=%v: FlatPQ counters missing: %v", p, vals)
		}
		// The quality plane recorded too: the Algorithm 3 matching-weight
		// progression and the Theorem 2 summary, each at this ratio.
		qv := rec.QualityValues()
		for _, metric := range []string{"bm2.matching_weight", "bm2.delta", "bm2.headroom.theorem2"} {
			if _, ok := qv[metric]; !ok {
				t.Fatalf("p=%v: quality metric %s missing: %v", p, metric, qv)
			}
		}
	}
}
