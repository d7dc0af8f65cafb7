package analysis

import (
	"math"
	"testing"

	"edgeshed/internal/core"
	"edgeshed/internal/graph"
	"edgeshed/internal/graph/gen"
)

func TestDegreeAssortativity(t *testing.T) {
	// Star: maximal disassortativity (hubs link only to leaves) → -1.
	if got := DegreeAssortativity(gen.Star(10)); math.Abs(got-(-1)) > 1e-9 {
		t.Errorf("star assortativity = %v, want -1", got)
	}
	// Regular graph: no degree variance → 0 by convention.
	if got := DegreeAssortativity(gen.Cycle(10)); got != 0 {
		t.Errorf("cycle assortativity = %v, want 0", got)
	}
	// Empty graph.
	var empty graph.Graph
	if got := DegreeAssortativity(&empty); got != 0 {
		t.Errorf("empty assortativity = %v, want 0", got)
	}
	// BA graphs are famously close to neutral/disassortative; just check
	// the range.
	if got := DegreeAssortativity(gen.BarabasiAlbert(500, 3, 1)); got < -1 || got > 1 {
		t.Errorf("BA assortativity = %v outside [-1, 1]", got)
	}
}

func TestApproxDiameter(t *testing.T) {
	if got := ApproxDiameter(gen.Path(10)); got != 9 {
		t.Errorf("path diameter = %d, want 9 (double sweep is exact on trees)", got)
	}
	if got := ApproxDiameter(gen.Cycle(10)); got < 5 || got > 10 {
		t.Errorf("C10 diameter = %d, want ~5", got)
	}
	if got := ApproxDiameter(gen.Complete(6)); got != 1 {
		t.Errorf("K6 diameter = %d, want 1", got)
	}
	var empty graph.Graph
	if got := ApproxDiameter(&empty); got != 0 {
		t.Errorf("empty diameter = %d, want 0", got)
	}
	// Disconnected: measures the largest component.
	g := graph.MustFromEdges(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 4, V: 5}})
	if got := ApproxDiameter(g); got != 3 {
		t.Errorf("disconnected diameter = %d, want 3", got)
	}
}

func TestKCoreKnownValues(t *testing.T) {
	// K4 plus a pendant chain: clique nodes are 3-core, chain degrades.
	b := graph.NewBuilder(6)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.TryAddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	b.TryAddEdge(3, 4)
	b.TryAddEdge(4, 5)
	g := b.Graph()
	core := KCore(g)
	want := []int{3, 3, 3, 3, 1, 1}
	for u, w := range want {
		if core[u] != w {
			t.Errorf("core[%d] = %d, want %d", u, core[u], w)
		}
	}
	if MaxCore(g) != 3 {
		t.Errorf("MaxCore = %d, want 3", MaxCore(g))
	}
}

func TestKCoreShapes(t *testing.T) {
	// Cycle: every node 2-core. Tree: every non-isolated node 1-core.
	for _, c := range KCore(gen.Cycle(8)) {
		if c != 2 {
			t.Fatalf("cycle core = %d, want 2", c)
		}
	}
	for _, c := range KCore(gen.Path(8)) {
		if c != 1 {
			t.Fatalf("path core = %d, want 1", c)
		}
	}
	for _, c := range KCore(gen.Complete(5)) {
		if c != 4 {
			t.Fatalf("K5 core = %d, want 4", c)
		}
	}
	// Isolated nodes have core 0.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}})
	if KCore(g)[2] != 0 {
		t.Error("isolated node core != 0")
	}
}

func TestKCoreInvariant(t *testing.T) {
	// Every node's core number is at most its degree, and the k-core
	// induced subgraph really has min degree >= k for k = MaxCore.
	g := gen.BarabasiAlbert(300, 3, 7)
	core := KCore(g)
	for u := 0; u < g.NumNodes(); u++ {
		if core[u] > g.Degree(graph.NodeID(u)) {
			t.Fatalf("core[%d] = %d > degree %d", u, core[u], g.Degree(graph.NodeID(u)))
		}
	}
	k := MaxCore(g)
	inCore := make(map[graph.NodeID]bool)
	for u, c := range core {
		if c >= k {
			inCore[graph.NodeID(u)] = true
		}
	}
	for u := range inCore {
		d := 0
		for _, v := range g.Neighbors(u) {
			if inCore[v] {
				d++
			}
		}
		if d < k {
			t.Fatalf("node %d has only %d neighbors in the %d-core", u, d, k)
		}
	}
}

func TestGiniDegree(t *testing.T) {
	// Regular graph: perfect equality → 0.
	if got := GiniDegree(gen.Cycle(10)); math.Abs(got) > 1e-9 {
		t.Errorf("cycle gini = %v, want 0", got)
	}
	// Star(20): degrees are nineteen 1s and one 19, whose Gini is exactly
	// 342/(20·38) = 0.45.
	if star := GiniDegree(gen.Star(20)); math.Abs(star-0.45) > 1e-9 {
		t.Errorf("star gini = %v, want 0.45", star)
	}
	// Heavy-tailed beats uniform random on inequality.
	ba := GiniDegree(gen.BarabasiAlbert(500, 3, 1))
	er := GiniDegree(gen.ErdosRenyi(500, 1491, 1))
	if ba <= er {
		t.Errorf("BA gini %v <= ER gini %v", ba, er)
	}
	var empty graph.Graph
	if GiniDegree(&empty) != 0 {
		t.Error("empty gini != 0")
	}
}

func TestSheddingPreservesDegreeInequality(t *testing.T) {
	// A structural check beyond the paper's seven tasks: BM2's reduction
	// keeps degree inequality (Gini) closer to the original than uniform
	// sampling does on a heavy-tailed graph, because it tracks per-node
	// expectations instead of thinning independently.
	g := gen.ConfigurationModel(gen.PowerLawDegrees(600, 2.1, 1, 80, 3), 4)
	origGini := GiniDegree(g)
	if origGini <= 0 {
		t.Fatal("degenerate test graph")
	}
	p := 0.5
	bm2Res, err := (core.BM2{}).Reduce(g, p)
	if err != nil {
		t.Fatal(err)
	}
	rndRes, err := (core.Random{Seed: 5}).Reduce(g, p)
	if err != nil {
		t.Fatal(err)
	}
	bm2Gap := math.Abs(GiniDegree(bm2Res.Reduced) - origGini)
	rndGap := math.Abs(GiniDegree(rndRes.Reduced) - origGini)
	if bm2Gap >= rndGap {
		t.Errorf("BM2 gini gap %v not smaller than random's %v", bm2Gap, rndGap)
	}
}
