package experiments

import (
	"testing"

	"edgeshed/internal/graph/gen"
)

func TestBetweennessOptionsSizing(t *testing.T) {
	small := gen.Cycle(100)
	if opt := betweennessOptions(small, 1, 0); opt.Samples != 0 {
		t.Errorf("small graph got sampled betweenness: %+v", opt)
	}
	big := gen.BarabasiAlbert(5000, 2, 1)
	opt := betweennessOptions(big, 1, 0)
	if opt.Samples == 0 {
		t.Error("large graph got exact betweenness")
	}
	if opt.Samples > big.NumNodes() {
		t.Errorf("samples %d exceed |V|", opt.Samples)
	}
}

func TestReducerSetOrderAndSkip(t *testing.T) {
	g := gen.Cycle(50)
	full := (Config{}).reducerSet(g)
	if len(full) != 3 {
		t.Fatalf("reducer set size = %d, want 3", len(full))
	}
	if full[0] == nil || full[0].Name() != "UDS" {
		t.Error("first slot should be UDS")
	}
	if full[1].Name() != "CRR" || full[2].Name() != "BM2" {
		t.Error("table order must be UDS, CRR, BM2")
	}
	skipped := (Config{SkipUDS: true}).reducerSet(g)
	if skipped[0] != nil {
		t.Error("SkipUDS did not clear the UDS slot")
	}
}

func TestReduceAllSkipsNil(t *testing.T) {
	g := gen.BarabasiAlbert(60, 2, 1)
	reds, err := (Config{SkipUDS: true}).reduceAll(g, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reds) != 2 {
		t.Fatalf("reduceAll returned %d reductions, want 2 with UDS skipped", len(reds))
	}
	for _, rd := range reds {
		if rd.g.NumEdges() == 0 {
			t.Errorf("%s produced an empty reduction", rd.name)
		}
	}
}

func TestBuildScalesLiveJournalExtra(t *testing.T) {
	cfg := Config{Scale: 64}
	lj, err := cfg.build("com-LiveJournal")
	if err != nil {
		t.Fatal(err)
	}
	grqc, err := cfg.build("ca-GrQc")
	if err != nil {
		t.Fatal(err)
	}
	// LiveJournal gets a 16x extra divisor: 3997962/(64*16) vs 5242/64.
	if lj.NumNodes() != 3997962/(64*16) {
		t.Errorf("LJ |V| = %d", lj.NumNodes())
	}
	if grqc.NumNodes() != 5242/64 {
		t.Errorf("GrQc |V| = %d", grqc.NumNodes())
	}
	if _, err := cfg.build("no-such"); err == nil {
		t.Error("unknown dataset accepted")
	}
}
