package experiments

import (
	"fmt"

	"edgeshed/internal/analysis"
	"edgeshed/internal/centrality"
	"edgeshed/internal/core"
	"edgeshed/internal/graph"
	"edgeshed/internal/tasks"
)

// runFig4 sweeps the CRR rewiring budget x (steps = [x·P]) on the two small
// collaboration stand-ins at p = 0.5, reporting graph reduction quality
// (average delta, lower is better) and reduction time — the trade-off of
// Figure 4.
func runFig4(cfg Config) error {
	for _, name := range []string{"ca-GrQc", "ca-HepPh"} {
		g, err := cfg.build(name)
		if err != nil {
			return err
		}
		tbl := newTable(
			fmt.Sprintf("Figure 4 (%s, |V|=%d |E|=%d, p=0.5): CRR steps sweep", name, g.NumNodes(), g.NumEdges()),
			"x", "avg delta", "time (s)")
		for _, x := range []float64{1, 2, 4, 6, 8, 10, 12, 14} {
			var res *core.Result
			dur, err := timed(func() error {
				var rerr error
				res, rerr = core.CRR{
					Seed:        cfg.Seed + 1,
					StepsFactor: x,
					Betweenness: betweennessOptions(g, cfg.Seed+77, cfg.Workers),
				}.Reduce(g, 0.5)
				return rerr
			})
			if err != nil {
				return err
			}
			tbl.addRow(fmt.Sprintf("%.0f", x), f4(res.AvgDelta()), fsec(dur))
			cfg.progress("fig4 %s: x=%.0f in %s", name, x, fsec(dur))
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

// runFig5ab compares the measured average absolute degree discrepancy of CRR
// and BM2 against the Theorem 1 and 2 bounds on ca-GrQc across p.
func runFig5ab(cfg Config) error {
	g, err := cfg.build("ca-GrQc")
	if err != nil {
		return err
	}
	tbl := newTable(
		fmt.Sprintf("Figure 5(a)-(b) (ca-GrQc stand-in, |V|=%d |E|=%d): error vs bound", g.NumNodes(), g.NumEdges()),
		"p", "CRR err", "CRR bound", "BM2 err", "BM2 bound")
	for _, p := range cfg.ps() {
		crrRes, err := (core.CRR{Seed: cfg.Seed + 1, Betweenness: betweennessOptions(g, cfg.Seed+77, cfg.Workers)}).Reduce(g, p)
		if err != nil {
			return err
		}
		bm2Res, err := (core.BM2{}).Reduce(g, p)
		if err != nil {
			return err
		}
		tbl.addRow(f3(p),
			f4(crrRes.AvgDisPerNode()), f4(core.CRRBound(g, p)),
			f4(bm2Res.AvgDisPerNode()), f4(core.BM2Bound(g, p)))
		cfg.progress("fig5ab: p=%s done", f3(p))
	}
	return cfg.render(tbl)
}

// reducedGraphs runs every configured reducer at ratio p and returns the
// reduced graphs keyed by method name, in table order.
type reduction struct {
	name string
	g    *graph.Graph
}

func (c Config) reduceAll(g *graph.Graph, p float64) ([]reduction, error) {
	var out []reduction
	for _, r := range c.reducerSet(g) {
		if r == nil {
			continue
		}
		res, err := r.Reduce(g, p)
		if err != nil {
			return nil, fmt.Errorf("%s at p=%v: %w", r.Name(), p, err)
		}
		out = append(out, reduction{name: r.Name(), g: res.Reduced})
		c.progress("reduced with %s p=%s: |E| %d -> %d", r.Name(), f3(p), g.NumEdges(), res.Reduced.NumEdges())
	}
	return out, nil
}

// runFig5cd prints the vertex degree distributions of the original
// email-Enron stand-in and its reductions, including the paper's Figure 6
// zoom on degrees 1-18, plus a TVD summary.
func runFig5cd(cfg Config) error {
	g, err := cfg.build("email-Enron")
	if err != nil {
		return err
	}
	const cap = 300
	for _, p := range []float64{0.5, 0.3} {
		reds, err := cfg.reduceAll(g, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "Figure 5(c)-(d)/6 (email-Enron stand-in, p=%.1f): degree distribution, buckets 0..18\n", p)
		orig := analysis.DegreeDistribution(g, cap)
		if err := seriesLine(cfg.Out, "original", orig, 19); err != nil {
			return err
		}
		tbl := newTable("", "method", "TVD vs original (degree dist)")
		for _, rd := range reds {
			dist := analysis.DegreeDistribution(rd.g, cap)
			if err := seriesLine(cfg.Out, rd.name, dist, 19); err != nil {
				return err
			}
			tbl.addRow(rd.name, f4(tasks.TVD(orig, dist)))
		}
		fmt.Fprintln(cfg.Out)
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

// distributionFigure factors the shared shape of Figures 7, 9 and 10: a
// per-dataset, per-method series plus a scalar error against the original.
func (c Config) distributionFigure(caption string, datasets []string, p float64,
	series func(g *graph.Graph) []float64, maxLen int) error {
	for _, name := range datasets {
		g, err := c.build(name)
		if err != nil {
			return err
		}
		reds, err := c.reduceAll(g, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(c.Out, "%s (%s stand-in, p=%.1f)\n", caption, name, p)
		orig := series(g)
		if err := seriesLine(c.Out, "original", orig, maxLen); err != nil {
			return err
		}
		tbl := newTable("", "method", "TVD/L1 vs original")
		for _, rd := range reds {
			s := series(rd.g)
			if err := seriesLine(c.Out, rd.name, s, maxLen); err != nil {
				return err
			}
			tbl.addRow(rd.name, f4(tasks.TVD(orig, s)))
		}
		fmt.Fprintln(c.Out)
		if err := c.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

var smallDatasets = []string{"ca-GrQc", "ca-HepPh", "email-Enron"}

// runFig7 prints shortest-path distance distributions (fractions of
// reachable pairs per distance).
func runFig7(cfg Config) error {
	return cfg.distributionFigure("Figure 7: shortest-path distance distribution",
		smallDatasets, 0.3,
		func(g *graph.Graph) []float64 {
			opt := analysis.ProfileOptions{Sources: profileSources(g), Seed: cfg.Seed + 5, Workers: cfg.Workers}
			return analysis.NewDistanceProfile(g, opt).Distribution()
		}, 12)
}

// runFig10 prints hop-plots (cumulative reachable-pair fraction per hop).
func runFig10(cfg Config) error {
	return cfg.distributionFigure("Figure 10: hop-plot",
		smallDatasets, 0.3,
		func(g *graph.Graph) []float64 {
			opt := analysis.ProfileOptions{Sources: profileSources(g), Seed: cfg.Seed + 5, Workers: cfg.Workers}
			return analysis.NewDistanceProfile(g, opt).HopPlot()
		}, 12)
}

// profileSources bounds BFS sources for distance profiles on larger graphs.
func profileSources(g *graph.Graph) int {
	if g.NumNodes() <= 2048 {
		return 0 // exact
	}
	return 512
}

// runFig8 prints mean node betweenness by vertex degree and the relative
// error of each method.
func runFig8(cfg Config) error {
	for _, name := range smallDatasets {
		g, err := cfg.build(name)
		if err != nil {
			return err
		}
		reds, err := cfg.reduceAll(g, 0.3)
		if err != nil {
			return err
		}
		bopt := betweennessOptions(g, cfg.Seed+6, cfg.Workers)
		fmt.Fprintf(cfg.Out, "Figure 8: betweenness vs degree (%s stand-in, p=0.3), buckets deg 0..15\n", name)
		origBC := analysis.MeanByDegree(g, centrality.NodeBetweenness(g, bopt))
		if err := seriesLine(cfg.Out, "original", normalizeSeries(origBC), 16); err != nil {
			return err
		}
		var origMass float64
		for _, x := range origBC {
			origMass += x
		}
		tbl := newTable("", "method", "relative L1 error vs original")
		for _, rd := range reds {
			redBC := analysis.MeanByDegree(g, centrality.NodeBetweenness(rd.g, bopt))
			if err := seriesLine(cfg.Out, rd.name, normalizeSeries(redBC), 16); err != nil {
				return err
			}
			relErr := 0.0
			if origMass > 0 {
				relErr = tasks.L1(origBC, redBC) / origMass
			}
			tbl.addRow(rd.name, f4(relErr))
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}

// normalizeSeries scales a series to unit sum for readable printing.
func normalizeSeries(xs []float64) []float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum == 0 {
		return xs
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / sum
	}
	return out
}

// runFig9 prints mean clustering coefficient by degree per method.
func runFig9(cfg Config) error {
	for _, name := range smallDatasets {
		g, err := cfg.build(name)
		if err != nil {
			return err
		}
		reds, err := cfg.reduceAll(g, 0.3)
		if err != nil {
			return err
		}
		task := tasks.ClusteringTask{}
		fmt.Fprintf(cfg.Out, "Figure 9: clustering coefficient vs degree (%s stand-in, p=0.3), buckets deg 0..15\n", name)
		orig := analysis.ClusteringByDegree(g, cfg.Workers)
		if err := seriesLine(cfg.Out, "original", orig, 16); err != nil {
			return err
		}
		tbl := newTable("", "method", "mean |cc gap| across degrees")
		for _, rd := range reds {
			_, r := task.Series(g, rd.g)
			if err := seriesLine(cfg.Out, rd.name, r, 16); err != nil {
				return err
			}
			tbl.addRow(rd.name, f4(task.Error(g, rd.g)))
		}
		if err := cfg.render(tbl); err != nil {
			return err
		}
	}
	return nil
}
