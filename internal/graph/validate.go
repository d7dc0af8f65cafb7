package graph

// Validate checks the structural invariants of g and returns the first
// violation found, or nil. It runs exactly the checks a packed-file load
// makes (validatePacked) followed by PackedGraph.Verify's deep cross-checks
// (verifyPacked), over the graph's own arrays, so an in-RAM graph and a
// mapped one answer to one validator. It is O(|V| + |E|) and intended for
// tests and for verifying graphs built from untrusted inputs.
//
// Invariants:
//   - offsets start at 0, end at 2|E| and never decrease;
//   - every edge is canonical (U < V) and in range, and the edge list is
//     strictly sorted (hence loop- and duplicate-free);
//   - each node's targets are in range and strictly ascending;
//   - every slot's edge id names the canonical edge the slot targets, and
//     the mate pointers pair the two slots of each edge, so the adjacency
//     is symmetric and holds each edge exactly twice.
func (g *Graph) Validate() error {
	c := g.CSR()
	if err := validatePacked(c, g.edges); err != nil {
		return err
	}
	return verifyPacked(c, g.edges)
}
