// Package gen generates synthetic graphs. It provides the classic random
// models (Erdős–Rényi, Barabási–Albert, Holme–Kim, Watts–Strogatz, planted
// partition, configuration model) plus deterministic toy shapes for tests.
//
// These generators stand in for the SNAP datasets in the paper's evaluation:
// the module is built offline, so real downloads are unavailable, and the
// evaluation only depends on structural properties (heavy-tailed degrees,
// clustering, community structure) that these models reproduce. All
// generators are deterministic given their seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"edgeshed/internal/graph"
)

// ErdosRenyi returns a uniform random graph with exactly n nodes and m edges
// (the G(n, m) model). It panics if m exceeds the number of distinct pairs.
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		panic(fmt.Sprintf("gen: %d edges requested but K_%d has only %d", m, n, maxEdges))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for b.NumEdges() < m {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		b.TryAddEdge(u, v)
	}
	return b.Graph()
}

// BarabasiAlbert returns a preferential-attachment graph: it starts from a
// small seed clique and attaches each new node to mPer existing nodes with
// probability proportional to their degree. The result has roughly
// n*mPer edges and a power-law degree distribution, the signature of the
// collaboration and social networks in the paper's Table II.
func BarabasiAlbert(n, mPer int, seed int64) *graph.Graph {
	return baLike(n, mPer, 0, seed)
}

// HolmeKim returns a Barabási–Albert graph with triad closure: after each
// preferential attachment step, with probability pt the next link closes a
// triangle through the previous target. This yields the high clustering
// coefficients typical of co-authorship networks (ca-GrQc, ca-HepPh).
func HolmeKim(n, mPer int, pt float64, seed int64) *graph.Graph {
	return baLike(n, mPer, pt, seed)
}

// baLike implements BA (pt = 0) and Holme–Kim (pt > 0) attachment. The
// repeated-nodes list doubles as the preferential-attachment sampler: a node
// appears once per incident edge endpoint, so uniform sampling from it is
// degree-proportional.
func baLike(n, mPer int, pt float64, seed int64) *graph.Graph {
	if mPer < 1 {
		panic("gen: attachment count must be >= 1")
	}
	m0 := mPer + 1
	if n < m0 {
		panic(fmt.Sprintf("gen: need at least %d nodes for mPer=%d", m0, mPer))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	// nbrs mirrors the builder so triad closure can sample neighbors in O(1)
	// without finalizing the graph mid-build.
	nbrs := make([][]graph.NodeID, n)
	addEdge := func(u, v graph.NodeID) bool {
		if !b.TryAddEdge(u, v) {
			return false
		}
		nbrs[u] = append(nbrs[u], v)
		nbrs[v] = append(nbrs[v], u)
		return true
	}
	// Seed clique over the first m0 nodes. The repeated-endpoint list is the
	// degree-proportional sampler.
	repeated := make([]graph.NodeID, 0, 2*n*mPer)
	for u := 0; u < m0; u++ {
		for v := u + 1; v < m0; v++ {
			addEdge(graph.NodeID(u), graph.NodeID(v))
			repeated = append(repeated, graph.NodeID(u), graph.NodeID(v))
		}
	}
	for u := m0; u < n; u++ {
		added := 0
		var prev graph.NodeID = -1
		for attempts := 0; added < mPer && attempts < 50*mPer; attempts++ {
			var target graph.NodeID
			if prev >= 0 && pt > 0 && rng.Float64() < pt && len(nbrs[prev]) > 0 {
				// Triad closure: link to a random neighbor of the previous target.
				target = nbrs[prev][rng.Intn(len(nbrs[prev]))]
			} else {
				target = repeated[rng.Intn(len(repeated))]
			}
			if target == graph.NodeID(u) {
				continue
			}
			if addEdge(graph.NodeID(u), target) {
				repeated = append(repeated, graph.NodeID(u), target)
				prev = target
				added++
			}
		}
		// Degenerate corner (tiny graphs): fall back to uniform targets.
		for added < mPer {
			if addEdge(graph.NodeID(u), graph.NodeID(rng.Intn(u))) {
				added++
			}
		}
	}
	return b.Graph()
}

// WattsStrogatz returns a small-world ring lattice over n nodes where each
// node links to its k/2 nearest neighbors on each side and each edge is
// rewired to a random target with probability beta. k must be even and < n.
func WattsStrogatz(n, k int, beta float64, seed int64) *graph.Graph {
	if k%2 != 0 || k >= n || k < 2 {
		panic(fmt.Sprintf("gen: WattsStrogatz needs even k in [2, n); got n=%d k=%d", n, k))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for j := 1; j <= k/2; j++ {
			v := (u + j) % n
			if rng.Float64() < beta {
				// Rewire to a uniform random target, keeping u fixed.
				for attempts := 0; attempts < 32; attempts++ {
					w := graph.NodeID(rng.Intn(n))
					if b.TryAddEdge(graph.NodeID(u), w) {
						v = -1
						break
					}
				}
				if v == -1 {
					continue
				}
			}
			b.TryAddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.Graph()
}

// PlantedPartition returns a stochastic block model with c communities of
// size per: within-community pairs are linked with probability pIn, and
// cross-community pairs with probability pOut. Community of node u is
// u / per. It models the community structure the link-prediction task needs.
func PlantedPartition(c, per int, pIn, pOut float64, seed int64) *graph.Graph {
	n := c * per
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			p := pOut
			if u/per == v/per {
				p = pIn
			}
			if rng.Float64() < p {
				b.TryAddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	return b.Graph()
}

// PowerLawDegrees samples n integer degrees from a discrete power law with
// exponent gamma on [minDeg, maxDeg], returning a sequence whose sum is even
// (the last entry is bumped if needed) so it is realizable as a graph.
func PowerLawDegrees(n int, gamma float64, minDeg, maxDeg int, seed int64) []int {
	if minDeg < 1 || maxDeg < minDeg {
		panic(fmt.Sprintf("gen: bad degree range [%d, %d]", minDeg, maxDeg))
	}
	rng := rand.New(rand.NewSource(seed))
	// Inverse-CDF sampling over the continuous power law, then floor.
	a := math.Pow(float64(minDeg), 1-gamma)
	bnd := math.Pow(float64(maxDeg)+1, 1-gamma)
	deg := make([]int, n)
	sum := 0
	for i := range deg {
		u := rng.Float64()
		x := math.Pow(a+(bnd-a)*u, 1/(1-gamma))
		d := int(x)
		if d < minDeg {
			d = minDeg
		}
		if d > maxDeg {
			d = maxDeg
		}
		deg[i] = d
		sum += d
	}
	if sum%2 == 1 {
		deg[n-1]++
	}
	return deg
}

// ConfigurationModel builds a simple graph approximately realizing the given
// degree sequence via stub matching with rejection (the "erased"
// configuration model): self-loops and parallel edges are dropped, so
// realized degrees can fall slightly short of the request for high-degree
// nodes. The degree-sequence sum must be even.
func ConfigurationModel(degrees []int, seed int64) *graph.Graph {
	sum := 0
	for _, d := range degrees {
		if d < 0 {
			panic("gen: negative degree")
		}
		sum += d
	}
	if sum%2 == 1 {
		panic("gen: degree sequence sum must be even")
	}
	rng := rand.New(rand.NewSource(seed))
	stubs := make([]graph.NodeID, 0, sum)
	for u, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, graph.NodeID(u))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := graph.NewBuilder(len(degrees))
	for i := 0; i+1 < len(stubs); i += 2 {
		b.TryAddEdge(stubs[i], stubs[i+1])
	}
	return b.Graph()
}

// RMAT returns a recursive-matrix (R-MAT/Kronecker-style) graph over 2^scale
// nodes with roughly m edges: each edge lands in one of four quadrants of
// the adjacency matrix with probabilities (a, b, c, d), recursively. With
// the canonical skew (a ≈ 0.57) this produces the heavy-tailed,
// community-rich structure of large social networks like com-LiveJournal.
// Self-loops and duplicates are rejected and retried, so the realized edge
// count can fall slightly short of m on dense parameterizations.
func RMAT(scale, m int, a, b, c float64, seed int64) *graph.Graph {
	if scale < 1 || scale > 30 {
		panic(fmt.Sprintf("gen: RMAT scale %d outside [1, 30]", scale))
	}
	d := 1 - a - b - c
	if a < 0 || b < 0 || c < 0 || d < 0 {
		panic(fmt.Sprintf("gen: RMAT probabilities (%v, %v, %v, %v) invalid", a, b, c, d))
	}
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed))
	bld := graph.NewBuilder(n)
	maxAttempts := 20 * m
	for attempts := 0; bld.NumEdges() < m && attempts < maxAttempts; attempts++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: neither bit set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		bld.TryAddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return bld.Graph()
}

// Star returns the star graph K_{1,n-1} with node 0 as the hub.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.TryAddEdge(0, graph.NodeID(v))
	}
	return b.Graph()
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.TryAddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.Graph()
}

// Cycle returns the cycle graph C_n.
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		b.TryAddEdge(graph.NodeID(u), graph.NodeID((u+1)%n))
	}
	return b.Graph()
}

// Path returns the path graph P_n (n nodes, n-1 edges).
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := 0; u+1 < n; u++ {
		b.TryAddEdge(graph.NodeID(u), graph.NodeID(u+1))
	}
	return b.Graph()
}

// Grid returns the rows x cols king-free grid graph (4-neighborhood).
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.TryAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.TryAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Graph()
}
