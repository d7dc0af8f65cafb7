package analysis

import (
	"math"
	"sort"

	"edgeshed/internal/graph"
)

// DegreeAssortativity returns the Pearson correlation of endpoint degrees
// over edges (Newman's assortativity coefficient): positive when hubs link
// to hubs, negative when hubs link to leaves. Returns 0 for graphs with no
// degree variance across edge endpoints.
func DegreeAssortativity(g *graph.Graph) float64 {
	m := g.NumEdges()
	if m == 0 {
		return 0
	}
	// Standard formulation over edges, symmetrized: each edge contributes
	// both (deg u, deg v) and (deg v, deg u).
	var sumXY, sumX, sumX2 float64
	for _, e := range g.Edges() {
		du := float64(g.Degree(e.U))
		dv := float64(g.Degree(e.V))
		sumXY += 2 * du * dv
		sumX += du + dv
		sumX2 += du*du + dv*dv
	}
	n := float64(2 * m)
	num := sumXY/n - (sumX/n)*(sumX/n)
	den := sumX2/n - (sumX/n)*(sumX/n)
	if den == 0 {
		return 0
	}
	return num / den
}

// ApproxDiameter lower-bounds the diameter with the classic double-sweep:
// BFS from an arbitrary node of the largest component, then BFS again from
// the farthest node found. Exact on trees; within a factor ~2 in general
// and usually exact on real networks.
func ApproxDiameter(g *graph.Graph) int {
	lc := LargestComponent(g)
	if len(lc) == 0 {
		return 0
	}
	far := func(s graph.NodeID) (graph.NodeID, int32) {
		dist := BFS(g, s)
		best, bestD := s, int32(0)
		for u, d := range dist {
			if d > bestD {
				best, bestD = graph.NodeID(u), d
			}
		}
		return best, bestD
	}
	a, _ := far(lc[0])
	_, d := far(a)
	return int(d)
}

// KCore returns each node's core number: the largest k such that the node
// survives in the k-core (the maximal subgraph with all degrees >= k).
// Computed with the linear-time bucket peeling of Batagelj–Zaveršnik.
func KCore(g *graph.Graph) []int {
	n := g.NumNodes()
	core := make([]int, n)
	if n == 0 {
		return core
	}
	deg := g.Degrees()
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	// Bucket-sort nodes by degree.
	binStart := make([]int, maxDeg+2)
	for _, d := range deg {
		binStart[d+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		binStart[d] += binStart[d-1]
	}
	pos := make([]int, n)    // node -> index in vert
	vert := make([]int32, n) // sorted nodes
	next := append([]int(nil), binStart[:maxDeg+1]...)
	for u := 0; u < n; u++ {
		pos[u] = next[deg[u]]
		vert[pos[u]] = int32(u)
		next[deg[u]]++
	}
	// Peel in degree order, demoting neighbors as they lose support.
	curDeg := append([]int(nil), deg...)
	for i := 0; i < n; i++ {
		u := vert[i]
		core[u] = curDeg[u]
		for _, v := range g.Neighbors(u) {
			if curDeg[v] <= curDeg[u] {
				continue
			}
			// Swap v to the front of its bucket, then shrink its degree.
			dv := curDeg[v]
			pw := binStart[dv]
			w := vert[pw]
			if v != w {
				vert[pos[v]], vert[pw] = w, v
				pos[w], pos[v] = pos[v], pw
			}
			binStart[dv]++
			curDeg[v]--
		}
	}
	return core
}

// MaxCore returns the largest core number in g (the degeneracy).
func MaxCore(g *graph.Graph) int {
	max := 0
	for _, c := range KCore(g) {
		if c > max {
			max = c
		}
	}
	return max
}

// GiniDegree returns the Gini coefficient of the degree sequence, a scalar
// summary of degree inequality useful for checking that shedding preserved
// the heavy tail. Returns 0 for empty or degree-uniform graphs.
func GiniDegree(g *graph.Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	deg := g.Degrees()
	// Gini = Σ_i Σ_j |d_i - d_j| / (2 n² mean). Use the sorted form to stay
	// O(n log n).
	sorted := append([]int(nil), deg...)
	sort.Ints(sorted)
	var cum, total float64
	for i, d := range sorted {
		cum += float64(d) * float64(2*(i+1)-n-1)
		total += float64(d)
	}
	if total == 0 {
		return 0
	}
	return math.Abs(cum / (float64(n) * total))
}
