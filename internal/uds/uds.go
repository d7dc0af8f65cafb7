// Package uds reimplements the paper's comparator: Utility-Driven Graph
// Summarization (Kumar & Efstathopoulos, VLDB'19, paper reference [8]).
//
// UDS greedily merges node pairs into supernodes while the summary's utility
// stays above a user threshold τ_U. Utility credits every original edge
// represented by the summary with its importance and debits spurious pairs
// implied by superedges with an importance derived from node importances.
// Following the paper's experimental settings (Section V-A), both node and
// edge importance are betweenness centrality and τ_U = p.
//
// This is a reimplementation from the published description, simplified
// where the original is underspecified, but preserving the two behaviours
// the evaluation depends on: cost that grows steeply as τ_U falls (Table
// III) and lossy supernode aggregation that destroys degree and
// shortest-path detail at small τ_U (Figures 5-10).
package uds

import (
	"fmt"
	"math"

	"edgeshed/internal/centrality"
	"edgeshed/internal/graph"
	"edgeshed/internal/matching"
)

// Summarizer configures a UDS run.
type Summarizer struct {
	// Tau is the utility threshold τ_U in (0, 1]: merging stops when no
	// candidate merge can keep utility at or above Tau.
	Tau float64
	// SpuriousPenalty scales the importance charged for spurious pairs.
	// 0 means 1 (the neutral setting).
	SpuriousPenalty float64
	// MaxCandidatesPerNode caps how many 2-hop merge candidates are seeded
	// per node, the memoization-style bound UDS uses for scalability.
	// 0 means 16.
	MaxCandidatesPerNode int
	// Betweenness configures the importance computation; the zero value is
	// exact Brandes.
	Betweenness centrality.Options
	// Seed drives tie-breaking in candidate seeding.
	Seed int64
}

func (s Summarizer) penalty() float64 {
	if s.SpuriousPenalty <= 0 {
		return 1
	}
	return s.SpuriousPenalty
}

func (s Summarizer) candCap() int {
	if s.MaxCandidatesPerNode <= 0 {
		return 16
	}
	return s.MaxCandidatesPerNode
}

// Summary is the output of a UDS run: a mapping of original nodes into
// supernodes plus the surviving superedge structure.
type Summary struct {
	// Original is the summarized graph.
	Original *graph.Graph
	// SuperOf[u] is the supernode containing node u. Supernode ids are
	// arbitrary but stable within the summary.
	SuperOf []int32
	// Members[s] lists the nodes of alive supernode s; dead ids have nil.
	Members [][]graph.NodeID
	// Utility is the final summary utility in [0, 1].
	Utility float64
	// Merges is the number of merges performed.
	Merges int

	superEdges map[[2]int32]*pairInfo // alive superpair -> counts
	internal   []pairInfo             // per-super internal edges
	nbSum      []float64              // per-super Σ normalized node importance
	penalty    float64
}

// pairInfo tracks original edges between (or within) supernodes.
type pairInfo struct {
	edges int
	imp   float64 // Σ normalized importance of those edges
}

// NumSupernodes returns the number of alive supernodes.
func (s *Summary) NumSupernodes() int {
	n := 0
	for _, m := range s.Members {
		if m != nil {
			n++
		}
	}
	return n
}

// Summarize runs the greedy utility-driven merge loop on g.
func (s Summarizer) Summarize(g *graph.Graph) (*Summary, error) {
	if math.IsNaN(s.Tau) || s.Tau <= 0 || s.Tau > 1 {
		return nil, fmt.Errorf("uds: utility threshold τ_U = %v outside (0, 1]", s.Tau)
	}
	n := g.NumNodes()
	st := &state{
		g:       g,
		penalty: s.penalty(),
		summary: &Summary{
			Original:   g,
			SuperOf:    make([]int32, n),
			Members:    make([][]graph.NodeID, n),
			superEdges: make(map[[2]int32]*pairInfo),
			internal:   make([]pairInfo, n),
			nbSum:      make([]float64, n),
			Utility:    1,
		},
		links: make([]map[int32]*pairInfo, n),
	}
	st.summary.penalty = st.penalty

	// Importances (paper settings: betweenness for both nodes and edges),
	// normalized to sum to 1 each. The edge scores arrive as a flat slice
	// aligned with g.Edges(), so edge i's importance is edgeImp[i] directly.
	nodeBC, edgeImp := centrality.Betweenness(g, s.Betweenness)
	normalize(nodeBC)
	normalize(edgeImp)

	for u := 0; u < n; u++ {
		st.summary.SuperOf[u] = int32(u)
		st.summary.Members[u] = []graph.NodeID{graph.NodeID(u)}
		st.summary.nbSum[u] = nodeBC[u]
		st.links[u] = make(map[int32]*pairInfo)
	}
	for i, e := range g.Edges() {
		pi := &pairInfo{edges: 1, imp: edgeImp[i]}
		st.links[e.U][int32(e.V)] = pi
		st.links[e.V][int32(e.U)] = pi
		st.summary.superEdges[pairKey(int32(e.U), int32(e.V))] = pi
	}

	st.seedCandidates(s.candCap())
	st.run(s.Tau)
	st.summary.Utility = st.utility
	return st.summary, nil
}

func normalize(xs []float64) {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum <= 0 {
		// Degenerate graphs (no paths): fall back to uniform importance.
		if len(xs) > 0 {
			u := 1 / float64(len(xs))
			for i := range xs {
				xs[i] = u
			}
		}
		return
	}
	for i := range xs {
		xs[i] /= sum
	}
}

func pairKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// state is the mutable merge-loop state.
type state struct {
	g       *graph.Graph
	summary *Summary
	penalty float64
	utility float64
	links   []map[int32]*pairInfo // alive super -> neighbor super -> info
	pq      matching.PQ[cand]
}

// cand is a queued merge candidate; its queued priority is the ΔU at scoring
// time and is re-verified at pop (see run).
type cand struct {
	a, b   int32
	deltaU float64
}

// alive reports whether supernode s still exists.
func (st *state) alive(s int32) bool { return st.summary.Members[s] != nil }

// contribution returns the utility contributed by superpair (a, b):
// the represented-edge importance minus the spurious-pair penalty if keeping
// the superedge wins, or zero if dropping it wins.
func (st *state) contribution(a, b int32, pi *pairInfo) float64 {
	if pi == nil || pi.edges == 0 {
		return 0
	}
	sa, sb := len(st.summary.Members[a]), len(st.summary.Members[b])
	pairs := float64(sa) * float64(sb)
	spAll := (float64(sb)*st.summary.nbSum[a] + float64(sa)*st.summary.nbSum[b]) / 2 * st.penalty
	keep := pi.imp - spAll*(1-float64(pi.edges)/pairs)
	if keep <= 0 {
		return 0
	}
	return keep
}

// internalContribution is the same for edges inside supernode a.
func (st *state) internalContribution(a int32, in pairInfo) float64 {
	if in.edges == 0 {
		return 0
	}
	k := float64(len(st.summary.Members[a]))
	pairs := k * (k - 1) / 2
	if pairs == 0 {
		return 0
	}
	spAll := (k - 1) / 2 * st.summary.nbSum[a] * st.penalty
	keep := in.imp - spAll*(1-float64(in.edges)/pairs)
	if keep <= 0 {
		return 0
	}
	return keep
}

// deltaU computes the utility change of merging supernodes a and b.
func (st *state) deltaU(a, b int32) float64 {
	sum := st.summary
	var old, neu float64
	// Old: internals of a and b, the (a, b) pair, and both stars.
	old += st.internalContribution(a, sum.internal[a])
	old += st.internalContribution(b, sum.internal[b])
	ab := st.links[a][b]
	old += st.contribution(a, b, ab)
	for c, pi := range st.links[a] {
		if c != b {
			old += st.contribution(a, c, pi)
		}
	}
	for c, pi := range st.links[b] {
		if c != a {
			old += st.contribution(b, c, pi)
		}
	}

	// New: simulate the merged supernode without mutating.
	mergedLen := len(sum.Members[a]) + len(sum.Members[b])
	mergedNB := sum.nbSum[a] + sum.nbSum[b]
	mergedInternal := pairInfo{
		edges: sum.internal[a].edges + sum.internal[b].edges,
		imp:   sum.internal[a].imp + sum.internal[b].imp,
	}
	if ab != nil {
		mergedInternal.edges += ab.edges
		mergedInternal.imp += ab.imp
	}
	neu += simulateInternal(mergedLen, mergedNB, mergedInternal, st.penalty)
	// Star of the merged node: union of neighbors with summed infos.
	seen := make(map[int32]pairInfo, len(st.links[a])+len(st.links[b]))
	for c, pi := range st.links[a] {
		if c != b {
			seen[c] = *pi
		}
	}
	for c, pi := range st.links[b] {
		if c == a {
			continue
		}
		cur := seen[c]
		cur.edges += pi.edges
		cur.imp += pi.imp
		seen[c] = cur
	}
	for c, pi := range seen {
		cs := len(sum.Members[c])
		neu += simulatePair(mergedLen, mergedNB, cs, sum.nbSum[c], pi, st.penalty)
	}
	return neu - old
}

// simulatePair is contribution() over hypothetical supernode sizes.
func simulatePair(sa int, nbA float64, sb int, nbB float64, pi pairInfo, penalty float64) float64 {
	if pi.edges == 0 {
		return 0
	}
	pairs := float64(sa) * float64(sb)
	spAll := (float64(sb)*nbA + float64(sa)*nbB) / 2 * penalty
	keep := pi.imp - spAll*(1-float64(pi.edges)/pairs)
	if keep <= 0 {
		return 0
	}
	return keep
}

// simulateInternal is internalContribution() over a hypothetical supernode.
func simulateInternal(size int, nb float64, in pairInfo, penalty float64) float64 {
	if in.edges == 0 {
		return 0
	}
	k := float64(size)
	pairs := k * (k - 1) / 2
	if pairs == 0 {
		return 0
	}
	spAll := (k - 1) / 2 * nb * penalty
	keep := in.imp - spAll*(1-float64(in.edges)/pairs)
	if keep <= 0 {
		return 0
	}
	return keep
}

// seedCandidates queues adjacent pairs plus a capped set of 2-hop pairs.
func (st *state) seedCandidates(cap2hop int) {
	n := st.g.NumNodes()
	pushed := make(map[[2]int32]struct{})
	push := func(a, b int32) {
		if a == b {
			return
		}
		k := pairKey(a, b)
		if _, ok := pushed[k]; ok {
			return
		}
		pushed[k] = struct{}{}
		d := st.deltaU(a, b)
		st.pq.Push(cand{a: k[0], b: k[1], deltaU: d}, d)
	}
	for u := 0; u < n; u++ {
		for _, v := range st.g.Neighbors(graph.NodeID(u)) {
			if int32(u) < int32(v) {
				push(int32(u), int32(v))
			}
		}
		// 2-hop pairs through u: link u's first-capped neighbors pairwise is
		// quadratic; instead pair u with its neighbors' neighbors, capped.
		added := 0
		for _, v := range st.g.Neighbors(graph.NodeID(u)) {
			for _, w := range st.g.Neighbors(v) {
				if int32(w) <= int32(u) || st.g.HasEdge(graph.NodeID(u), w) {
					continue
				}
				push(int32(u), int32(w))
				added++
				if added >= cap2hop {
					break
				}
			}
			if added >= cap2hop {
				break
			}
		}
	}
}

// run executes the greedy merge loop until utility would fall below tau.
//
// Queued ΔU values go stale whenever anything in a candidate's
// 2-neighborhood merges, so every pop re-scores the candidate: if the fresh
// value no longer beats the next-best queued priority, the candidate is
// re-queued at its fresh score instead of being applied. Applied merges
// therefore always use an exact ΔU, keeping the tracked utility consistent
// with the summary state (TestUtilityBookkeepingConsistent).
func (st *state) run(tau float64) {
	st.utility = 1
	for {
		c, stale, ok := st.pq.Pop()
		if !ok {
			return
		}
		if !st.alive(c.a) || !st.alive(c.b) {
			continue
		}
		d := st.deltaU(c.a, c.b)
		if _, next, hasNext := st.pq.Peek(); hasNext && d < next && d < stale {
			// No longer the best candidate: requeue at the fresh score.
			st.pq.Push(cand{a: c.a, b: c.b, deltaU: d}, d)
			continue
		}
		if st.utility+d < tau {
			// The best (fresh) candidate would cross the threshold; no
			// other candidate can do better. Stop.
			return
		}
		st.merge(c.a, c.b, d)
	}
}

// merge folds supernode b into a (small-to-large on adjacency size).
func (st *state) merge(a, b int32, dU float64) {
	sum := st.summary
	if len(st.links[a]) < len(st.links[b]) {
		a, b = b, a
	}
	// Internal edges: b's internals plus the (a, b) superedge become
	// internal to a.
	sum.internal[a].edges += sum.internal[b].edges
	sum.internal[a].imp += sum.internal[b].imp
	if ab := st.links[a][b]; ab != nil {
		sum.internal[a].edges += ab.edges
		sum.internal[a].imp += ab.imp
		delete(st.links[a], b)
		delete(sum.superEdges, pairKey(a, b))
	}
	// Rewire b's star onto a.
	for c, pi := range st.links[b] {
		if c == a {
			continue
		}
		delete(st.links[c], b)
		delete(sum.superEdges, pairKey(b, c))
		if cur := st.links[a][c]; cur != nil {
			cur.edges += pi.edges
			cur.imp += pi.imp
		} else {
			st.links[a][c] = pi
			st.links[c][a] = pi
			sum.superEdges[pairKey(a, c)] = pi
		}
	}
	st.links[b] = nil
	sum.nbSum[a] += sum.nbSum[b]
	sum.nbSum[b] = 0
	for _, u := range sum.Members[b] {
		sum.SuperOf[u] = a
	}
	sum.Members[a] = append(sum.Members[a], sum.Members[b]...)
	sum.Members[b] = nil
	sum.internal[b] = pairInfo{}
	st.utility += dU
	sum.Merges++
	// Re-seed candidates around the merged supernode.
	for c := range st.links[a] {
		k := pairKey(a, c)
		d := st.deltaU(a, c)
		st.pq.Push(cand{a: k[0], b: k[1], deltaU: d}, d)
	}
}

// String implements fmt.Stringer with a compact summary.
func (s *Summary) String() string {
	return fmt.Sprintf("uds.Summary{supernodes=%d merges=%d utility=%.3f}",
		s.NumSupernodes(), s.Merges, s.Utility)
}
