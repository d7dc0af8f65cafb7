// Package graph provides the undirected-graph substrate used by every other
// package in this repository: one compressed-sparse-row topology over a
// canonical edge list, subgraph extraction, I/O and validation.
//
// Nodes are dense indices in [0, NumNodes). Loaders and builders remap
// arbitrary external identifiers onto this dense range. Edges are undirected
// and stored once in canonical (min, max) order; self-loops and parallel
// edges are rejected.
//
// # CSR view and edge ids
//
// Graph.Edges() defines a canonical edge numbering: edge i is Edges()[i].
// Graph.CSR() exposes the adjacency as flat compressed-sparse-row arrays
// whose every slot carries that edge id (CSR.EdgeID), so algorithms that
// accumulate per-edge quantities — Brandes edge betweenness above all — can
// write edgeAcc[EdgeID[slot]] with pure array indexing instead of hashing a
// map[Edge] key per visit. The view's Offsets and Targets are the graph's
// own arrays; only the slot index (EdgeID, Mate) is built, lazily once per
// graph, cached, and safe for concurrent readers like the Graph itself.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// NodeID identifies a node. Graphs built here always use dense ids in
// [0, NumNodes); 32 bits is enough for the billion-edge graphs the paper
// targets while halving adjacency memory versus int64.
type NodeID = int32

// Edge is an undirected edge. A canonical Edge has U <= V; use Canonical to
// normalize. Edge is comparable and therefore usable as a map key.
type Edge struct {
	U, V NodeID
}

// Canonical returns e with its endpoints ordered so that U <= V. Undirected
// edge equality is defined on canonical edges.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Other returns the endpoint of e that is not u. It panics if u is not an
// endpoint of e, which always indicates a programming error in the caller.
func (e Edge) Other(u NodeID) NodeID {
	switch u {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", u, e))
}

// String implements fmt.Stringer.
func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is an immutable undirected graph over dense node ids.
//
// It holds the topology exactly once: the canonical edge list plus the
// compressed-sparse-row adjacency (offsets, targets) derived from it. Node
// u's neighbors are targets[offsets[u]:offsets[u+1]], sorted ascending. The
// per-slot edge-id and mate index that edge-accumulating kernels need is
// built lazily by CSR().
//
// Build one with a Builder, a generator from the gen subpackage, or a reader
// from io.go. The zero value is an empty graph with no nodes. Graph values
// are safe for concurrent readers; they are never mutated after construction.
type Graph struct {
	edges   []Edge   // canonical, sorted by (U, V)
	offsets []int32  // len NumNodes()+1; nil only for the zero Graph
	targets []NodeID // 2·NumEdges() slots, each node's range sorted ascending

	csrOnce sync.Once // guards the lazily built slot index
	csr     *CSR
}

// newGraph is the one constructor that fills a graph's adjacency: it takes
// ownership of edges, which must be canonical, strictly sorted by (U, V)
// and inside [0, n), and derives offsets and targets with a counting pass
// and a fill pass. Because the edge list is sorted, scanning it in order
// appends each node's neighbors in ascending order — for node u, every
// partner a < u arrives first (from edges (a, u), globally sorted by a),
// then every partner b > u (from the contiguous (u, b) block) — so no
// per-node sort is needed.
func newGraph(n int, edges []Edge) *Graph {
	if err := csrBounds(n, len(edges)); err != nil {
		// Graph construction has no error path; silently wrapping int32
		// slot indices is the one unacceptable outcome, so overflow is a
		// loud stop.
		panic(err)
	}
	offsets := make([]int32, n+1)
	for _, e := range edges {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	targets := make([]NodeID, 2*len(edges))
	// cur[u] is the next free slot in u's range during the fill pass.
	cur := make([]int32, n)
	copy(cur, offsets[:n])
	for _, e := range edges {
		targets[cur[e.U]] = e.V
		targets[cur[e.V]] = e.U
		cur[e.U]++
		cur[e.V]++
	}
	return &Graph{edges: edges, offsets: offsets, targets: targets}
}

// NewFromEdges constructs a graph with n nodes and the given edges. Edges may
// appear in any orientation and order; duplicates (including reversed
// duplicates) and self-loops cause an error, as does any endpoint outside
// [0, n).
func NewFromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// MustFromEdges is NewFromEdges that panics on error; intended for tests and
// literals of known-good shape.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := NewFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return max(len(g.offsets)-1, 0) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Degree returns the degree of node u.
func (g *Graph) Degree(u NodeID) int { return int(g.offsets[u+1] - g.offsets[u]) }

// Neighbors returns the sorted neighbor list of u. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.targets[lo:hi:hi]
}

// Edges returns the canonical edge list sorted by (U, V). The returned slice
// is owned by the graph and must not be modified.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether the undirected edge (u, v) exists. It runs in
// O(log deg) via binary search on the smaller adjacency list.
func (g *Graph) HasEdge(u, v NodeID) bool {
	n := NodeID(g.NumNodes())
	if u < 0 || v < 0 || u >= n || v >= n || u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	a := g.Neighbors(u)
	i := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	return i < len(a) && a[i] == v
}

// AvgDegree returns the average degree 2|E|/|V|, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.NumNodes())
}

// MaxDegree returns the largest degree in the graph, or 0 if there are no
// nodes.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := range g.NumNodes() {
		if d := g.Degree(NodeID(u)); d > max {
			max = d
		}
	}
	return max
}

// Degrees returns a fresh slice d with d[u] = Degree(u).
func (g *Graph) Degrees() []int {
	d := make([]int, g.NumNodes())
	for u := range d {
		d[u] = g.Degree(NodeID(u))
	}
	return d
}

// Subgraph returns a new graph over the same node set containing exactly the
// given edges. Each edge must exist in g; orientation is ignored. Duplicate
// edges in the input cause an error.
func (g *Graph) Subgraph(edges []Edge) (*Graph, error) {
	b := NewBuilder(g.NumNodes())
	for _, e := range edges {
		if !g.HasEdge(e.U, e.V) {
			return nil, fmt.Errorf("graph: subgraph edge %v not present in parent", e)
		}
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Graph(), nil
}

// SubgraphByIDs returns a new graph over the same node set containing
// exactly the edges with the given canonical ids — positions in Edges() —
// which must be sorted ascending and duplicate-free. It is the id-native
// fast path behind the shedding reducers: because the canonical edge list is
// sorted by (U, V), selecting ascending ids yields the subgraph's edge list
// already in order, so construction is one selection pass plus newGraph's
// counting fill, with no hashing and no edge re-sort.
func (g *Graph) SubgraphByIDs(ids []int32) (*Graph, error) {
	edges := make([]Edge, len(ids))
	prev := int32(-1)
	for i, id := range ids {
		if id <= prev {
			return nil, fmt.Errorf("graph: subgraph edge ids not ascending at position %d (%d after %d)", i, id, prev)
		}
		if int(id) >= len(g.edges) {
			return nil, fmt.Errorf("graph: subgraph edge id %d outside [0,%d)", id, len(g.edges))
		}
		prev = id
		edges[i] = g.edges[id]
	}
	return newGraph(g.NumNodes(), edges), nil
}

// EdgeSet returns the edges as a set keyed by canonical edge. The map is
// freshly allocated on every call.
func (g *Graph) EdgeSet() map[Edge]struct{} {
	s := make(map[Edge]struct{}, len(g.edges))
	for _, e := range g.edges {
		s[e] = struct{}{}
	}
	return s
}

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{|V|=%d |E|=%d}", g.NumNodes(), g.NumEdges())
}

// Bytes estimates the resident memory of the graph's data structures: the
// canonical edge list (8 bytes per edge), the adjacency targets (two 4-byte
// slots per edge), the offsets (4 bytes per node plus one) and the three
// slice headers. The lazily built slot index is not counted: it is a kernel
// working structure, not part of the stored graph. It quantifies the
// storage saving of a reduction — the paper's first motivation — without
// depending on the runtime's allocator.
func (g *Graph) Bytes() int64 {
	const (
		sliceHeader = 24 // ptr + len + cap
		int32Size   = 4
		edgeSize    = 8
	)
	total := int64(3 * sliceHeader)
	total += int64(g.NumNodes()+1) * int32Size // offsets
	total += int64(2*g.NumEdges()) * int32Size // targets
	total += int64(g.NumEdges()) * edgeSize    // edge list
	return total
}
