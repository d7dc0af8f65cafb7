package experiments

import (
	"fmt"

	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/matching"
	"edgeshed/internal/tasks"
)

// runAblationSampling compares exact Brandes against source-sampled
// betweenness inside CRR Phase 1: reduction quality (Δ), top-k utility and
// time (DESIGN.md §5.1).
func runAblationSampling(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	task := tasks.TopKTask{}
	tbl := newTable(
		fmt.Sprintf("Ablation 1 (ca-GrQc stand-in, |V|=%d, p=0.3): CRR betweenness sampling", g.NumNodes()),
		"variant", "avg delta", "top-k utility", "time (s)")
	variants := []struct {
		name string
		opt  centrality.Options
	}{
		{"exact", centrality.Options{}},
		{"samples=256", centrality.Options{Samples: 256, Seed: cfg.Seed + 20}},
		{"samples=64", centrality.Options{Samples: 64, Seed: cfg.Seed + 20}},
		{"samples=16", centrality.Options{Samples: 16, Seed: cfg.Seed + 20}},
	}
	for _, v := range variants {
		var res *core.Result
		dur, err := timed(func() error {
			var rerr error
			res, rerr = core.CRR{Seed: cfg.Seed + 1, Betweenness: v.opt}.Reduce(g, 0.3)
			return rerr
		})
		if err != nil {
			return err
		}
		tbl.addRow(v.name, f4(res.AvgDelta()), f3(task.Utility(g, res.Reduced)), fsec(dur))
	}
	return cfg.render(tbl)
}

// runAblationRounding compares BM2's capacity rounding rules (DESIGN.md
// §5.3).
func runAblationRounding(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	tbl := newTable(
		fmt.Sprintf("Ablation 2 (ca-GrQc stand-in, |V|=%d): BM2 rounding rule", g.NumNodes()),
		"p", "half-up |E'|", "half-up delta", "half-even |E'|", "half-even delta")
	for _, p := range []float64{0.7, 0.5, 0.3} {
		up, err := (core.BM2{Rounding: core.RoundHalfUp}).Reduce(g, p)
		if err != nil {
			return err
		}
		even, err := (core.BM2{Rounding: core.RoundHalfEven}).Reduce(g, p)
		if err != nil {
			return err
		}
		tbl.addRow(f3(p),
			fmt.Sprint(up.Reduced.NumEdges()), f4(up.Delta()),
			fmt.Sprint(even.Reduced.NumEdges()), f4(even.Delta()))
	}
	return cfg.render(tbl)
}

// runAblationZeroGain compares keeping vs dropping gain = 0 bipartite edges
// in BM2 Phase 2 (Example 2's "user preference"; DESIGN.md §5.4).
func runAblationZeroGain(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	tbl := newTable(
		fmt.Sprintf("Ablation 3 (ca-GrQc stand-in, |V|=%d): BM2 zero-gain edges", g.NumNodes()),
		"p", "keep |E'|", "keep delta", "drop |E'|", "drop delta")
	for _, p := range []float64{0.7, 0.5, 0.3} {
		keep, err := (core.BM2{}).Reduce(g, p)
		if err != nil {
			return err
		}
		drop, err := (core.BM2{DropZeroGain: true}).Reduce(g, p)
		if err != nil {
			return err
		}
		tbl.addRow(f3(p),
			fmt.Sprint(keep.Reduced.NumEdges()), f4(keep.Delta()),
			fmt.Sprint(drop.Reduced.NumEdges()), f4(drop.Delta()))
	}
	return cfg.render(tbl)
}

// runAblationOrder compares BM2 Phase-1 edge scan orders (DESIGN.md §5.5).
func runAblationOrder(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	tbl := newTable(
		fmt.Sprintf("Ablation 4 (ca-GrQc stand-in, |V|=%d): BM2 b-matching edge order", g.NumNodes()),
		"p", "input delta", "scarce-first delta", "dense-first delta")
	for _, p := range []float64{0.7, 0.5, 0.3} {
		row := []string{f3(p)}
		for _, o := range []matching.EdgeOrder{matching.InputOrder, matching.ScarceFirst, matching.DenseFirst} {
			res, err := (core.BM2{Order: o}).Reduce(g, p)
			if err != nil {
				return err
			}
			row = append(row, f4(res.Delta()))
		}
		tbl.addRow(row...)
	}
	return cfg.render(tbl)
}

// runAblationImportance tests the paper's argument for betweenness as the
// Phase 1 ranking: compare it with a degree-product proxy and pure random
// ranking (DESIGN.md §5.6).
func runAblationImportance(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	task := tasks.TopKTask{}
	tbl := newTable(
		fmt.Sprintf("Ablation 6 (ca-GrQc stand-in, |V|=%d, p=0.3): CRR Phase-1 importance", g.NumNodes()),
		"importance", "avg delta", "top-k utility", "SP-dist TVD", "time (s)")
	sp := tasks.SPDistanceTask{Seed: cfg.Seed + 21}
	for _, im := range []core.Importance{core.ImportanceBetweenness, core.ImportanceDegreeProduct, core.ImportanceRandom} {
		var res *core.Result
		dur, err := timed(func() error {
			var rerr error
			res, rerr = core.CRR{
				Seed:        cfg.Seed + 1,
				Importance:  im,
				Betweenness: betweennessOptions(g, cfg.Seed+77, cfg.Workers),
			}.Reduce(g, 0.3)
			return rerr
		})
		if err != nil {
			return err
		}
		tbl.addRow(im.String(), f4(res.AvgDelta()),
			f3(task.Utility(g, res.Reduced)),
			f4(sp.Error(g, res.Reduced)), fsec(dur))
	}
	return cfg.render(tbl)
}

// runAblationAdaptive compares the fixed [10·P]-step rewiring budget with
// the adaptive early stop across thresholds (DESIGN.md §5.7).
func runAblationAdaptive(cfg Config) error {
	g, err := cfg.build("ca-HepPh")
	if err != nil {
		return err
	}
	bopt := betweennessOptions(g, cfg.Seed+77, cfg.Workers)
	tbl := newTable(
		fmt.Sprintf("Ablation 7 (ca-HepPh stand-in, |V|=%d, p=0.5): CRR adaptive stop", g.NumNodes()),
		"variant", "avg delta", "time (s)")
	variants := []struct {
		name string
		stop float64
	}{
		{"fixed [10*P]", 0},
		{"adaptive 10%", 0.10},
		{"adaptive 3%", 0.03},
		{"adaptive 1%", 0.01},
	}
	for _, v := range variants {
		var res *core.Result
		dur, err := timed(func() error {
			var rerr error
			res, rerr = core.CRR{Seed: cfg.Seed + 1, Betweenness: bopt, AdaptiveStop: v.stop}.Reduce(g, 0.5)
			return rerr
		})
		if err != nil {
			return err
		}
		tbl.addRow(v.name, f4(res.AvgDelta()), fsec(dur))
	}
	return cfg.render(tbl)
}

// runAblationRewiring isolates the value of CRR Phase 2 across p: pure
// centrality ranking (Steps < 0) vs the default [10·P] rewiring budget.
func runAblationRewiring(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	bopt := betweennessOptions(g, cfg.Seed+77, cfg.Workers)
	tbl := newTable(
		fmt.Sprintf("Ablation 5 (ca-GrQc stand-in, |V|=%d): CRR rewiring on/off", g.NumNodes()),
		"p", "phase1-only delta", "full CRR delta", "improvement")
	for _, p := range cfg.ps() {
		off, err := (core.CRR{Seed: cfg.Seed + 1, Steps: -1, Betweenness: bopt}).Reduce(g, p)
		if err != nil {
			return err
		}
		on, err := (core.CRR{Seed: cfg.Seed + 1, Betweenness: bopt}).Reduce(g, p)
		if err != nil {
			return err
		}
		improvement := 0.0
		if off.Delta() > 0 {
			improvement = 1 - on.Delta()/off.Delta()
		}
		tbl.addRow(f3(p), f4(off.Delta()), f4(on.Delta()), f3(improvement))
	}
	return cfg.render(tbl)
}
