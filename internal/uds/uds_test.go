package uds

import (
	"math"
	"testing"

	"edgeshed/internal/core"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

func TestSummarizeRejectsBadTau(t *testing.T) {
	g := gen.Cycle(10)
	for _, tau := range []float64{0, -0.2, 1.5, math.NaN()} {
		if _, err := (Summarizer{Tau: tau}).Summarize(g); err == nil {
			t.Errorf("τ_U = %v accepted", tau)
		}
	}
}

func TestHighTauBarelyMerges(t *testing.T) {
	// τ_U = 1 allows only merges with ΔU >= 0, so the summary stays close
	// to the original graph.
	g := gen.BarabasiAlbert(100, 3, 1)
	sum, err := Summarizer{Tau: 1}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Utility < 1-1e-9 {
		t.Errorf("utility fell below τ_U = 1: %v", sum.Utility)
	}
	if sum.NumSupernodes() < g.NumNodes()*8/10 {
		t.Errorf("τ_U = 1 merged too aggressively: %d supernodes of %d nodes",
			sum.NumSupernodes(), g.NumNodes())
	}
}

func TestLowerTauMergesMore(t *testing.T) {
	g := gen.BarabasiAlbert(120, 3, 2)
	high, err := Summarizer{Tau: 0.9}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	low, err := Summarizer{Tau: 0.3}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	if low.NumSupernodes() >= high.NumSupernodes() {
		t.Errorf("τ=0.3 supernodes (%d) >= τ=0.9 supernodes (%d)",
			low.NumSupernodes(), high.NumSupernodes())
	}
	if low.Merges <= high.Merges {
		t.Errorf("τ=0.3 merges (%d) <= τ=0.9 merges (%d)", low.Merges, high.Merges)
	}
}

func TestUtilityRespectsThreshold(t *testing.T) {
	g := gen.ErdosRenyi(80, 200, 3)
	for _, tau := range []float64{0.3, 0.5, 0.8} {
		sum, err := Summarizer{Tau: tau}.Summarize(g)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Utility < tau-1e-9 {
			t.Errorf("τ=%v: final utility %v below threshold", tau, sum.Utility)
		}
		if sum.Utility > 1+1e-9 {
			t.Errorf("τ=%v: utility %v above 1", tau, sum.Utility)
		}
	}
}

func TestSuperOfPartition(t *testing.T) {
	g := gen.BarabasiAlbert(100, 3, 4)
	sum, err := Summarizer{Tau: 0.5}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	// SuperOf must be consistent with Members: every node in exactly one
	// alive supernode.
	seen := make(map[graph.NodeID]int32)
	for sn, m := range sum.Members {
		for _, u := range m {
			if prev, dup := seen[u]; dup {
				t.Fatalf("node %d in supernodes %d and %d", u, prev, sn)
			}
			seen[u] = int32(sn)
			if sum.SuperOf[u] != int32(sn) {
				t.Fatalf("SuperOf[%d] = %d, but node listed in %d", u, sum.SuperOf[u], sn)
			}
		}
	}
	if len(seen) != g.NumNodes() {
		t.Errorf("partition covers %d of %d nodes", len(seen), g.NumNodes())
	}
}

func TestExpandedGraphShape(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 6)
	sum, err := Summarizer{Tau: 0.5}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	ex := sum.ExpandedGraph(7)
	if ex.NumNodes() != g.NumNodes() {
		t.Errorf("expanded |V| = %d, want %d", ex.NumNodes(), g.NumNodes())
	}
	if ex.NumEdges() == 0 || ex.NumEdges() > g.NumEdges() {
		t.Errorf("expanded |E| = %d, want in (0, %d]", ex.NumEdges(), g.NumEdges())
	}
	if err := ex.Validate(); err != nil {
		t.Errorf("expanded graph invalid: %v", err)
	}
}

func TestExpandedGraphNoMergesRecoversOriginal(t *testing.T) {
	// With τ_U = 1 and ΔU < 0 for all merges on this graph, expansion must
	// reproduce the original edge set exactly (singleton supernodes imply
	// zero spurious pairs).
	g := gen.Cycle(12)
	sum, err := Summarizer{Tau: 1}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Merges == 0 {
		ex := sum.ExpandedGraph(1)
		if ex.NumEdges() != g.NumEdges() {
			t.Fatalf("expansion of unmerged summary: |E| = %d, want %d", ex.NumEdges(), g.NumEdges())
		}
		for _, e := range g.Edges() {
			if !ex.HasEdge(e.U, e.V) {
				t.Errorf("edge %v lost", e)
			}
		}
	}
}

func TestPageRankScores(t *testing.T) {
	g := gen.Star(20)
	sum, err := Summarizer{Tau: 0.9}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	pr := sum.PageRankScores(0.85, 40)
	if len(pr) != g.NumNodes() {
		t.Fatalf("scores length %d, want %d", len(pr), g.NumNodes())
	}
	var total float64
	for _, s := range pr {
		if s < 0 {
			t.Fatal("negative PageRank score")
		}
		total += s
	}
	if math.Abs(total-1) > 0.02 {
		t.Errorf("PageRank mass = %v, want ~1", total)
	}
	// The hub must outrank any leaf if it survived as (part of) its own
	// supernode.
	hubSuper := sum.SuperOf[0]
	if len(sum.Members[hubSuper]) == 1 && pr[0] <= pr[1] {
		t.Errorf("hub score %v <= leaf score %v", pr[0], pr[1])
	}
}

func TestReducerInterface(t *testing.T) {
	var r core.Reducer = Reducer{}
	if r.Name() != "UDS" {
		t.Errorf("Name = %q, want UDS", r.Name())
	}
	g := gen.BarabasiAlbert(80, 3, 8)
	res, err := r.Reduce(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced.NumNodes() != g.NumNodes() {
		t.Errorf("reduced |V| = %d, want %d", res.Reduced.NumNodes(), g.NumNodes())
	}
	if res.Reduced.NumEdges() == 0 {
		t.Error("UDS reduced graph has no edges")
	}
}

func TestUDSWorseDeltaThanBM2AtSmallP(t *testing.T) {
	// The paper's headline: degree-preserving shedding beats utility-driven
	// summarization on degree discrepancy at small p.
	g := gen.BarabasiAlbert(150, 3, 9)
	p := 0.3
	udsRes, err := Reducer{}.Reduce(g, p)
	if err != nil {
		t.Fatal(err)
	}
	bm2Res, err := (core.BM2{}).Reduce(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if bm2Res.Delta() >= udsRes.Delta() {
		t.Errorf("BM2 Δ = %v not better than UDS Δ = %v at p = %v",
			bm2Res.Delta(), udsRes.Delta(), p)
	}
}

func TestSkeletonGraph(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 12)
	sum, err := Summarizer{Tau: 0.4}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	sk := sum.SkeletonGraph()
	if err := sk.Validate(); err != nil {
		t.Fatalf("skeleton invalid: %v", err)
	}
	// The skeleton is at most one edge per superedge plus star interiors —
	// strictly sparser than the expansion once merging has happened.
	ex := sum.ExpandedGraph(1)
	if sum.Merges > 0 && sk.NumEdges() >= ex.NumEdges() {
		t.Errorf("skeleton |E| = %d not below expansion |E| = %d after %d merges",
			sk.NumEdges(), ex.NumEdges(), sum.Merges)
	}
}

func TestSkeletonModeDegradesDensityTasks(t *testing.T) {
	// The point of the skeleton view: at small τ it loses far more edges
	// than the expansion, collapsing density-driven signals.
	g := gen.BarabasiAlbert(200, 3, 13)
	exp, err := Reducer{}.Reduce(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	skel, err := Reducer{Skeleton: true}.Reduce(g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if skel.Reduced.NumEdges() > exp.Reduced.NumEdges() {
		t.Errorf("skeleton edges %d > expansion edges %d",
			skel.Reduced.NumEdges(), exp.Reduced.NumEdges())
	}
	// At such an aggressive threshold the skeleton must have lost most of
	// the original density.
	if skel.Reduced.NumEdges() >= g.NumEdges()/2 {
		t.Errorf("skeleton kept %d of %d edges at τ=0.1; expected heavy loss",
			skel.Reduced.NumEdges(), g.NumEdges())
	}
}

// recomputeUtility re-derives the summary's utility from scratch out of its
// final state, independent of the incremental ΔU bookkeeping.
func recomputeUtility(s *Summary) float64 {
	var u float64
	for k, pi := range s.superEdges {
		if pi == nil || pi.edges == 0 {
			continue
		}
		sa, sb := len(s.Members[k[0]]), len(s.Members[k[1]])
		pairs := float64(sa) * float64(sb)
		spAll := (float64(sb)*s.nbSum[k[0]] + float64(sa)*s.nbSum[k[1]]) / 2 * s.penalty
		if keep := pi.imp - spAll*(1-float64(pi.edges)/pairs); keep > 0 {
			u += keep
		}
	}
	for sn, in := range s.internal {
		if s.Members[sn] == nil || in.edges == 0 {
			continue
		}
		k := float64(len(s.Members[sn]))
		pairs := k * (k - 1) / 2
		if pairs == 0 {
			continue
		}
		spAll := (k - 1) / 2 * s.nbSum[sn] * s.penalty
		if keep := in.imp - spAll*(1-float64(in.edges)/pairs); keep > 0 {
			u += keep
		}
	}
	return u
}

func TestUtilityBookkeepingConsistent(t *testing.T) {
	// The incrementally tracked utility (1 + Σ merge ΔU) must equal a
	// from-scratch recomputation over the final summary state — any error
	// in the ΔU simulation would show up here.
	for _, tau := range []float64{0.8, 0.5, 0.3} {
		g := gen.BarabasiAlbert(120, 3, 77)
		sum, err := Summarizer{Tau: tau}.Summarize(g)
		if err != nil {
			t.Fatal(err)
		}
		if re := recomputeUtility(sum); math.Abs(re-sum.Utility) > 1e-9 {
			t.Errorf("τ=%v: tracked utility %v != recomputed %v (after %d merges)",
				tau, sum.Utility, re, sum.Merges)
		}
	}
}

func TestDeterministicSummaries(t *testing.T) {
	g := gen.ErdosRenyi(70, 160, 10)
	a, err := Summarizer{Tau: 0.5}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Summarizer{Tau: 0.5}.Summarize(g)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSupernodes() != b.NumSupernodes() || math.Abs(a.Utility-b.Utility) > 1e-12 {
		t.Errorf("summaries differ across identical runs: %d/%v vs %d/%v",
			a.NumSupernodes(), a.Utility, b.NumSupernodes(), b.Utility)
	}
}
