package matching

import (
	"fmt"
	"sort"

	"edgeshed/internal/graph"
)

// EdgeOrder selects the scan order for the greedy b-matching. The paper's
// Algorithm 2 scans edges in input order; the alternatives exist for the
// ablation study in DESIGN.md §5.5.
type EdgeOrder int

const (
	// InputOrder scans g.Edges() as stored (sorted by endpoint ids), the
	// literal reading of Algorithm 2 lines 4-7.
	InputOrder EdgeOrder = iota
	// ScarceFirst scans edges by ascending minimum endpoint capacity, giving
	// constrained nodes first pick of their edges.
	ScarceFirst
	// DenseFirst scans edges by descending minimum endpoint capacity.
	DenseFirst
)

// String implements fmt.Stringer.
func (o EdgeOrder) String() string {
	switch o {
	case InputOrder:
		return "input"
	case ScarceFirst:
		return "scarce-first"
	case DenseFirst:
		return "dense-first"
	}
	return fmt.Sprintf("EdgeOrder(%d)", int(o))
}

// BMatching is the result of a greedy maximal b-matching.
type BMatching struct {
	// Edges are the matched edges, in selection order.
	Edges []graph.Edge
	// IDs are the matched edges' canonical ids — positions in g.Edges() —
	// aligned with Edges, so callers can mark membership in a []bool instead
	// of hashing edges into a map.
	IDs []int32
	// Degrees[u] is u's degree within the matching.
	Degrees []int
}

// GreedyBMatching computes a maximal b-matching of g under the capacity
// vector caps: it scans edges in the given order and keeps edge (u, v)
// whenever both endpoints are below capacity (Algorithm 2, lines 4-7;
// Hougardy's linear-time 1/2-approximation of maximum b-matching). caps must
// have one entry per node; negative capacities are rejected.
func GreedyBMatching(g *graph.Graph, caps []int, order EdgeOrder) (*BMatching, error) {
	if len(caps) != g.NumNodes() {
		return nil, fmt.Errorf("matching: %d capacities for %d nodes", len(caps), g.NumNodes())
	}
	for u, c := range caps {
		if c < 0 {
			return nil, fmt.Errorf("matching: negative capacity %d at node %d", c, u)
		}
	}
	// Scan a permutation of edge ids rather than copied edges, so each kept
	// edge's canonical id (its position in g.Edges()) rides along for free.
	edges := g.Edges()
	scan := make([]int32, len(edges))
	for i := range scan {
		scan[i] = int32(i)
	}
	if order != InputOrder {
		// Precompute each edge's key once: the stable sort performs
		// O(m log m) comparisons, and recomputing min(caps) per comparison
		// doubles its memory traffic.
		key := make([]int32, len(edges))
		for id, e := range edges {
			cu, cv := caps[e.U], caps[e.V]
			if cu > cv {
				cu = cv
			}
			key[id] = int32(cu)
		}
		sort.SliceStable(scan, func(i, j int) bool {
			if order == ScarceFirst {
				return key[scan[i]] < key[scan[j]]
			}
			return key[scan[i]] > key[scan[j]]
		})
	}
	m := &BMatching{Degrees: make([]int, g.NumNodes())}
	for _, id := range scan {
		e := edges[id]
		if m.Degrees[e.U] < caps[e.U] && m.Degrees[e.V] < caps[e.V] {
			m.Edges = append(m.Edges, e)
			m.IDs = append(m.IDs, id)
			m.Degrees[e.U]++
			m.Degrees[e.V]++
		}
	}
	return m, nil
}

// VerifyMaximal reports whether m is a maximal b-matching of g under caps:
// every matched edge exists in g and respects both capacities, and no
// unmatched edge of g could be added without violating one. Membership is
// tracked in a []bool over canonical edge ids (resolved through the CSR
// view) instead of a map[Edge] set. It is O(|E| log deg) and intended for
// tests.
func (m *BMatching) VerifyMaximal(g *graph.Graph, caps []int) error {
	csr := g.CSR()
	in := make([]bool, g.NumEdges())
	deg := make([]int, g.NumNodes())
	for _, e := range m.Edges {
		id := csr.EdgeIDOf(e.U, e.V)
		if id < 0 {
			return fmt.Errorf("matching: matched edge %v not present in graph", e)
		}
		in[id] = true
		deg[e.U]++
		deg[e.V]++
	}
	for u := range deg {
		if deg[u] != m.Degrees[u] {
			return fmt.Errorf("matching: recorded degree %d != actual %d at node %d", m.Degrees[u], deg[u], u)
		}
		if deg[u] > caps[u] {
			return fmt.Errorf("matching: node %d degree %d exceeds capacity %d", u, deg[u], caps[u])
		}
	}
	for i, e := range g.Edges() {
		if in[i] {
			continue
		}
		if deg[e.U] < caps[e.U] && deg[e.V] < caps[e.V] {
			return fmt.Errorf("matching: not maximal, edge %v is addable", e)
		}
	}
	return nil
}
