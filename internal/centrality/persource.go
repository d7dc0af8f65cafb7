package centrality

// The preserved per-source Brandes path: one BFS per source over the CSR
// view, flat predecessor bookkeeping, sharded accumulation. This was the
// production driver behind Betweenness/EdgeBetweennessScores until the
// batched MS-BFS engine (brandes_msbfs.go) took over, and it is kept — not
// as dead code — for three jobs:
//
//   - oracle: the per-source queue order is the seed algorithm's order, so
//     oracle_test.go pins it bit-exactly against the seed map-based oracle
//     and the MS-BFS path against it within float tolerance;
//   - benchmark baseline: the EdgeBetweennessScoresPerSource/MSBFS pair
//     (micro_bench_test.go) measures the batched engine against exactly
//     this code;
//   - escape hatch: a scalar reference implementation with no per-(node,
//     bit) state, trivially auditable against Brandes (2001).

import (
	"time"

	"edgeshed/internal/graph"
	"edgeshed/internal/par"
)

// predEntry is one recorded shortest-path predecessor: the predecessor node
// and the canonical id of the connecting edge, captured at discovery time so
// the accumulation loop needs no further indirection through the CSR.
type predEntry struct {
	node graph.NodeID
	edge int32
}

// brandesState is the per-worker scratch space for one BFS + accumulation
// pass, reused across sources to avoid re-allocation. All predecessor
// bookkeeping lives in one flat CSR-bounded array: node w's predecessors
// occupy preds[c.Offsets[w]] .. preds[c.Offsets[w]+predCnt[w]-1], which can
// never overflow because a node has at most Degree(w) predecessors.
type brandesState struct {
	queue   []graph.NodeID // BFS queue doubling as the visit order stack
	dist    []int32
	sigma   []float64   // shortest path counts
	delta   []float64   // dependency accumulation
	preds   []predEntry // flat predecessor storage, one entry per CSR slot (2|E|)
	predCnt []int32     // predecessors recorded per node this pass
}

func newBrandesState(c *graph.CSR) *brandesState {
	n := c.NumNodes()
	return &brandesState{
		queue:   make([]graph.NodeID, 0, n),
		dist:    make([]int32, n),
		sigma:   make([]float64, n),
		delta:   make([]float64, n),
		preds:   make([]predEntry, c.NumSlots()),
		predCnt: make([]int32, n),
	}
}

// run performs one Brandes pass from source s, adding node dependencies into
// nodeAcc (if non-nil) and edge dependencies into edgeAcc (if non-nil,
// indexed by canonical edge id, i.e. aligned with g.Edges()).
func (st *brandesState) run(c *graph.CSR, s graph.NodeID, nodeAcc, edgeAcc []float64) {
	st.queue = st.queue[:0]
	// Reset only what the previous pass touched would be ideal; for
	// simplicity and cache-friendliness we clear the dense arrays. dist = -1
	// doubles as "unvisited". preds needs no clearing: predCnt gates every
	// read.
	for i := range st.dist {
		st.dist[i] = -1
		st.sigma[i] = 0
		st.delta[i] = 0
		st.predCnt[i] = 0
	}
	offsets, targets, edgeID := c.Offsets, c.Targets, c.EdgeID
	dist, sigma, delta := st.dist, st.sigma, st.delta
	preds, predCnt := st.preds, st.predCnt
	queue := st.queue
	dist[s] = 0
	sigma[s] = 1
	queue = append(queue, s)
	if edgeAcc != nil {
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			dw := dist[v] + 1 // distance of any node first reached from v
			sv := sigma[v]
			lo, hi := offsets[v], offsets[v+1]
			for k, w := range targets[lo:hi] {
				switch {
				case dist[w] < 0: // first visit
					dist[w] = dw
					sigma[w] = sv
					preds[offsets[w]] = predEntry{node: v, edge: edgeID[lo+int32(k)]}
					predCnt[w] = 1
					queue = append(queue, w)
				case dist[w] == dw: // another shortest path
					sigma[w] += sv
					preds[offsets[w]+predCnt[w]] = predEntry{node: v, edge: edgeID[lo+int32(k)]}
					predCnt[w]++
				}
			}
		}
	} else {
		// Node-only variant: identical except it skips the edge-id loads.
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			dw := dist[v] + 1
			sv := sigma[v]
			lo, hi := offsets[v], offsets[v+1]
			for _, w := range targets[lo:hi] {
				switch {
				case dist[w] < 0:
					dist[w] = dw
					sigma[w] = sv
					preds[offsets[w]] = predEntry{node: v}
					predCnt[w] = 1
					queue = append(queue, w)
				case dist[w] == dw:
					sigma[w] += sv
					preds[offsets[w]+predCnt[w]] = predEntry{node: v}
					predCnt[w]++
				}
			}
		}
	}
	st.queue = queue
	// Accumulate dependencies in reverse BFS order. The edge-accumulating
	// and node-only loops are split so the innermost loop carries no nil
	// check and, in both cases, no map lookup or Canonical() call — each
	// predecessor visit is two array reads and two indexed accumulations.
	for i := len(queue) - 1; i >= 0; i-- {
		w := queue[i]
		coeff := (1 + delta[w]) / sigma[w]
		base := offsets[w]
		ps := preds[base : base+predCnt[w]]
		if edgeAcc != nil {
			for _, p := range ps {
				cc := sigma[p.node] * coeff
				delta[p.node] += cc
				edgeAcc[p.edge] += cc
			}
		} else {
			for _, p := range ps {
				delta[p.node] += sigma[p.node] * coeff
			}
		}
		if w != s && nodeAcc != nil {
			nodeAcc[w] += delta[w]
		}
	}
}

// both runs the sampled/exact parallel per-source Brandes driver.
// Per-source dependencies are floating point, so to keep the scores
// bit-identical at any worker count the accumulation is sharded, not
// per-worker: source srcs[i] always accumulates into shard i mod
// par.Shards, worker w processes shards w, w+workers, … with one reusable
// traversal state, and the per-shard partial sums merge in shard index
// order. The summation tree is then a function of (graph, Options) alone —
// the worker count only changes which goroutine happens to own a shard.
func both(g *graph.Graph, opt Options, wantNodes, wantEdges bool) ([]float64, []float64) {
	n := g.NumNodes()
	var nodes, edges []float64
	if wantNodes {
		nodes = make([]float64, n)
	}
	if wantEdges {
		edges = make([]float64, g.NumEdges())
	}
	if n == 0 {
		// Defensive: nothing to traverse regardless of Samples/Workers.
		return nodes, edges
	}
	srcs, scale := opt.sources(n)
	if len(srcs) == 0 {
		return nodes, edges
	}
	c := g.CSR()
	shards := par.Shards
	if shards > len(srcs) {
		shards = len(srcs)
	}
	workers := par.Workers(opt.Workers, shards)
	sp := opt.Obs.Start("betweenness")
	defer sp.End()
	sp.SetTotal(int64(len(srcs)))
	srcCtr := sp.Counter("betweenness.sources_done")
	type partial struct {
		nodes, edges []float64
	}
	parts := make([]partial, shards)
	par.Run(workers, func(w int) {
		var t0 time.Time
		if sp.Enabled() {
			t0 = time.Now()
		}
		var done int64
		st := newBrandesState(c)
		for s := w; s < shards; s += workers {
			var nodeAcc, edgeAcc []float64
			if wantNodes {
				nodeAcc = make([]float64, n)
			}
			if wantEdges {
				edgeAcc = make([]float64, g.NumEdges())
			}
			for i := s; i < len(srcs); i += shards {
				st.run(c, srcs[i], nodeAcc, edgeAcc)
				done++
				sp.Done(1)
			}
			parts[s] = partial{nodes: nodeAcc, edges: edgeAcc}
		}
		if sp.Enabled() {
			srcCtr.AddAt(w, done)
			sp.WorkerBusy(w, time.Since(t0))
		}
	})

	if wantNodes {
		for _, p := range parts {
			for i, v := range p.nodes {
				nodes[i] += v
			}
		}
		// Each unordered pair is seen from both endpoints in an exact run:
		// halve. Sampled runs estimate the same quantity via scale/2.
		for i := range nodes {
			nodes[i] *= scale / 2
		}
	}
	if wantEdges {
		for _, p := range parts {
			for i, v := range p.edges {
				edges[i] += v
			}
		}
		for i := range edges {
			edges[i] *= scale / 2
		}
	}
	return nodes, edges
}
