// Package centrality computes betweenness centrality for nodes and edges of
// unweighted undirected graphs using Brandes' algorithm (Brandes 2001,
// paper reference [24]): O(|V|+|E|) space and O(|V||E|) time exact, or
// O(s|E|) with s sampled sources for the large graphs where exact
// computation violates the paper's resource constraints.
//
// Every public entry point runs on the bit-parallel MS-BFS engine
// (internal/msbfs): one traversal carries up to 64 sources, the
// sigma/delta phases walk the discovered levels with one float64 per
// (node, batch bit) pair, and node and edge dependencies fold through the
// fixed-shard discipline in a canonical order — so the scores are
// bit-identical at any Workers count and any batch width. The seed
// per-source path is preserved in persource.go as the oracle and benchmark
// baseline.
//
// Betweenness is the backbone of CRR Phase 1 (edge ranking) and of the UDS
// comparator's node/edge importance scores.
package centrality

import (
	"edgeshed/internal/graph"
	"edgeshed/internal/obs"
)

// Options configures a betweenness computation.
type Options struct {
	// Samples is the number of BFS source nodes. 0 (or >= |V|) means exact:
	// every node is a source. A negative value is treated as 0, i.e. exact —
	// callers wanting validation should check before constructing Options.
	// With sampling, scores are scaled by |V|/Samples so they estimate the
	// exact values.
	Samples int
	// Workers is the parallelism across sources. 0 means GOMAXPROCS; a
	// negative value is likewise treated as GOMAXPROCS. Sources accumulate
	// into par.Shards fixed shards (source i into shard i mod par.Shards)
	// that merge in shard order, so the scores are bit-identical at ANY
	// worker count, not just deterministic per count. Parallelism is
	// therefore capped at par.Shards workers.
	Workers int
	// Seed drives source sampling; ignored when exact.
	Seed int64
	// Obs is the parent observability span; nil (the zero value) records
	// nothing at no cost. When set, the kernel reports a "betweenness" span
	// with per-worker busy time, a "betweenness.sources_done" counter, the
	// engine's "msbfs.*" traversal counters and — on the edge path — a
	// "brandes.edge_folds" counter of dependency terms folded into edge
	// scores. Instrumentation never alters the scores: they stay
	// bit-identical with Obs on or off, at any worker count.
	Obs *obs.Span
}

// samples resolves the sample count; negative means 0 (exact).
func (o Options) samples() int {
	if o.Samples < 0 {
		return 0
	}
	return o.Samples
}

// sources returns the BFS sources and the per-source scale factor.
// Sampling uses graph.SampleNodeIDs, the shared partial Fisher–Yates draw:
// O(Samples) time and memory, deterministic for a given Seed.
func (o Options) sources(n int) ([]graph.NodeID, float64) {
	s := o.samples()
	if s <= 0 || s >= n {
		return graph.SampleNodeIDs(n, n, 0), 1
	}
	return graph.SampleNodeIDs(n, s, o.Seed), float64(n) / float64(s)
}

// NodeBetweenness returns per-node betweenness centrality (unnormalized,
// with each unordered pair contributing once, as is conventional for
// undirected graphs). It runs on the bit-parallel MS-BFS engine — up to 64
// sources per traversal, folded through the fixed-shard discipline in a
// canonical per-level order — so the scores are bit-identical at any
// Workers count and any batch width, and bit-exactly
// pinned by the canonical serial oracle in msbfs_oracle_test.go. The
// canonical summation order differs from the per-source queue order the
// preserved persource.go path uses, so these scores match that path only
// to float tolerance, not bit for bit.
func NodeBetweenness(g *graph.Graph, opt Options) []float64 {
	nodes, _ := msbfsBetweenness(g, opt, true, false)
	return nodes
}

// EdgeBetweennessScores returns per-edge betweenness centrality as a flat
// slice aligned with g.Edges(): the score of g.Edges()[i] is element i.
// This is the cheapest edge-betweenness entry point — no wrapper, no
// edge-keyed map — and the scorer behind CRR Phase 1. Like
// NodeBetweenness it runs on the batched MS-BFS engine: scores are
// bit-identical at any Workers count and batch width, pinned by the
// canonical serial edge oracle in msbfs_oracle_test.go.
func EdgeBetweennessScores(g *graph.Graph, opt Options) []float64 {
	_, edges := msbfsBetweenness(g, opt, false, true)
	return edges
}

// Betweenness computes node and edge betweenness in a single pass over
// sources — one traversal, one backward sweep and one fold feed both
// accumulators — cheaper than computing them separately. The edge slice is
// aligned with g.Edges(). Both halves carry the engine's bit-determinism
// guarantee at any Workers count and batch width.
func Betweenness(g *graph.Graph, opt Options) ([]float64, []float64) {
	return msbfsBetweenness(g, opt, true, true)
}
