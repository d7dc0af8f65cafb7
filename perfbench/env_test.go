package main

import (
	"strings"
	"testing"

	"edgeshed/internal/obs"
)

func testMachine() machine {
	return machine{
		Env:      &obs.Env{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPUs: 2, GitCommit: "abc1234"},
		CPUModel: "Example CPU",
		LLCBytes: 105 << 20,
	}
}

func TestMachineComparable(t *testing.T) {
	a := testMachine()
	if warn, err := a.comparable(testMachine()); err != nil || warn != "" {
		t.Errorf("same machine: warning %q, error %v", warn, err)
	}
	for _, c := range []struct {
		name   string
		change func(m *machine)
		want   string
	}{
		{"cpu count", func(m *machine) { m.Env.CPUs = 4 }, "cpu count"},
		{"cpu model", func(m *machine) { m.CPUModel = "Other CPU" }, "cpu model"},
		{"llc", func(m *machine) { m.LLCBytes = 32 << 20 }, "last-level cache"},
		{"platform", func(m *machine) { m.Env.GOARCH = "arm64" }, "platform"},
	} {
		b := testMachine()
		c.change(&b)
		if _, err := a.comparable(b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s differs: comparable = %v, want an error about %s", c.name, err, c.want)
		}
	}
	b := testMachine()
	b.Env.GoVersion = "go1.25.0"
	if warn, err := a.comparable(b); err != nil || !strings.Contains(warn, "toolchain") {
		t.Errorf("toolchain differs: warning %q, error %v; want a toolchain warning only", warn, err)
	}
}

func TestParseCacheSize(t *testing.T) {
	for in, want := range map[string]int64{"107520K": 107520 << 10, "32M": 32 << 20, "512": 512, "": 0, "xK": 0} {
		if got := parseCacheSize(in); got != want {
			t.Errorf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}
}

func TestCompareRecordsFlagsRegressions(t *testing.T) {
	rec := func(shed, avg float64, failed int) *result {
		return &result{Machine: testMachine(), Workload: "crr-single", Attempted: 10, Failed: failed,
			Metrics: map[string]float64{"shed_s": shed, "avg_dis": avg}}
	}
	bounds := map[string]benchBound{
		"shed_s":  {Name: "shed_s", Better: "lower", Bound: 0.25},
		"avg_dis": {Name: "avg_dis", Better: "lower", Bound: 0.05},
	}
	base := []*result{rec(1.0, 0.3, 0), rec(1.1, 0.3, 0), rec(0.9, 0.3, 0)}
	for _, c := range []struct {
		name  string
		head  []*result
		worse bool
	}{
		{"within bounds", []*result{rec(1.2, 0.3, 0)}, false},
		{"faster", []*result{rec(0.5, 0.3, 0)}, false},
		{"slower beyond bound", []*result{rec(1.3, 0.3, 0)}, true},
		{"quality traded", []*result{rec(0.8, 0.33, 0)}, true},
		{"more failures", []*result{rec(1.0, 0.3, 1)}, true},
	} {
		rows, worse := compareRecords(base, c.head, bounds)
		if worse != c.worse {
			t.Errorf("%s: worse = %t, want %t\n%s", c.name, worse, c.worse, strings.Join(rows, "\n"))
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	base, head := t.TempDir(), t.TempDir()
	r := &result{Machine: testMachine(), Workload: "crr-single", Attempted: 2, Metrics: map[string]float64{"shed_s": 1}}
	if _, err := writeResult(base, r); err != nil {
		t.Fatal(err)
	}
	if _, err := writeResult(head, r); err != nil {
		t.Fatal(err)
	}
	args := []string{"-base", base, "-head", head, "-bench", "../BENCHMARK.json"}
	if code := compareMain(args); code != 0 {
		t.Fatalf("same machine: compare exit %d, want 0", code)
	}
	other := *r
	other.Machine = testMachine()
	other.Machine.CPUModel = "Other CPU"
	if _, err := writeResult(head, &other); err != nil {
		t.Fatal(err)
	}
	if code := compareMain(args); code != 2 {
		t.Errorf("a head record from another machine: compare exit %d, want 2", code)
	}
}
