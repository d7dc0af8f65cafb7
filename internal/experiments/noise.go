package experiments

import (
	"fmt"
	"math/rand"

	"edgeshed/internal/core"
	"edgeshed/internal/graph"
	"edgeshed/internal/uds"
)

// runNoise quantifies the paper's fourth motivation: "real datasets often
// have many hidden or wrong links ... graph reduction can filter noises".
// It injects spurious random edges into a clean stand-in, sheds the noisy
// graph, and measures what fraction of the shed edges were noise (precision
// of the filter) and what fraction of the noise got shed (recall).
// Importance-driven shedding should discard noise preferentially: random
// cross links carry little betweenness and connect nodes already at their
// expected degrees.
func runNoise(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	for _, noiseFrac := range []float64{0.1, 0.3} {
		noisy, injected, err := injectNoise(g, noiseFrac, cfg.Seed+51)
		if err != nil {
			return err
		}
		// Shed back down to the clean size: p = |E| / |E_noisy|.
		p := float64(g.NumEdges()) / float64(noisy.NumEdges())
		tbl := newTable(
			fmt.Sprintf("Noise filtering (ca-GrQc stand-in + %.0f%% spurious edges, shed to p=%.3f)", 100*noiseFrac, p),
			"method", "noise shed", "noise kept", "recall", "precision vs chance")
		reducers := []core.Reducer{
			core.CRR{Seed: cfg.Seed + 1, Betweenness: betweennessOptions(noisy, cfg.Seed+77, cfg.Workers)},
			core.BM2{},
			core.Random{Seed: cfg.Seed + 2},
		}
		chance := 1 - p // fraction of edges shed by a blind filter
		for _, r := range reducers {
			res, err := r.Reduce(noisy, p)
			if err != nil {
				return err
			}
			keptNoise := 0
			for e := range injected {
				if res.Reduced.HasEdge(e.U, e.V) {
					keptNoise++
				}
			}
			shedNoise := len(injected) - keptNoise
			recall := float64(shedNoise) / float64(len(injected))
			tbl.addRow(r.Name(),
				fmt.Sprint(shedNoise), fmt.Sprint(keptNoise),
				f3(recall), f3(recall/chance))
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

// injectNoise adds frac·|E| uniform random spurious edges to g, returning
// the noisy graph and the injected set.
func injectNoise(g *graph.Graph, frac float64, seed int64) (*graph.Graph, map[graph.Edge]struct{}, error) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges() {
		b.TryAddEdge(e.U, e.V)
	}
	injected := make(map[graph.Edge]struct{})
	want := int(frac * float64(g.NumEdges()))
	for len(injected) < want {
		u := graph.NodeID(rng.Intn(g.NumNodes()))
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if b.TryAddEdge(u, v) {
			injected[graph.Edge{U: u, V: v}.Canonical()] = struct{}{}
		}
	}
	return b.Graph(), injected, nil
}

// runAblationUDSCap varies UDS's 2-hop candidate cap — its
// memoization/scalability knob — measuring summarization time and top-k
// utility (DESIGN.md "memorization technique" discussion).
func runAblationUDSCap(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	tbl := newTable(
		fmt.Sprintf("Ablation 8 (ca-GrQc stand-in, |V|=%d, τ_U=0.3): UDS candidate cap", g.NumNodes()),
		"cap", "supernodes", "utility kept", "time (s)")
	for _, cap := range []int{4, 16, 64} {
		var sum *uds.Summary
		dur, err := timed(func() error {
			var rerr error
			sum, rerr = uds.Summarizer{
				Tau:                  0.3,
				MaxCandidatesPerNode: cap,
				Betweenness:          betweennessOptions(g, cfg.Seed+77, cfg.Workers),
			}.Summarize(g)
			return rerr
		})
		if err != nil {
			return err
		}
		tbl.addRow(fmt.Sprint(cap), fmt.Sprint(sum.NumSupernodes()), f3(sum.Utility), fsec(dur))
	}
	return cfg.render(tbl)
}
