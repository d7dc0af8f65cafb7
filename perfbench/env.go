package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"edgeshed/internal/obs"
)

// machine is the identity every result is stamped with: obs.Env (Go
// toolchain, platform, CPU count, commit with its -dirty flag) plus the
// CPU model and last-level cache size, which shape the numbers as much and
// which obs.Env does not record.
type machine struct {
	Env      *obs.Env `json:"env"`
	CPUModel string   `json:"cpu_model"`
	LLCBytes int64    `json:"llc_bytes"`
}

// captureMachine records the identity of the machine the run is on.
func captureMachine() machine {
	// obs.CaptureEnv asks git for the commit of the working directory. Stop
	// git at that directory, so a checkout that is not a repository records
	// no commit rather than the commit of an enclosing one.
	if wd, err := os.Getwd(); err == nil {
		os.Setenv("GIT_CEILING_DIRECTORIES", filepath.Dir(wd))
	}
	return machine{Env: obs.CaptureEnv(), CPUModel: cpuModel(), LLCBytes: llcBytes()}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "" where
// there is none.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// llcBytes returns the size of CPU 0's highest-level data or unified cache
// from sysfs, or 0 where sysfs does not say.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // the pattern is valid
	var level, size int64
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name)) // a missing file reads as empty
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		l, err := strconv.ParseInt(read("level"), 10, 64)
		if err != nil || l < level {
			continue
		}
		if s := parseCacheSize(read("size")); s > 0 {
			level, size = l, s
		}
	}
	return size
}

// parseCacheSize parses a sysfs cache size such as "107520K" or "32M";
// 0 for anything else.
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n * mult
}

// comparable reports whether results measured on m and o may be compared:
// obs.Env.Comparable's rules (same platform and CPU count; a different Go
// toolchain is a warning), and the same CPU model and last-level cache.
func (m machine) comparable(o machine) (warning string, err error) {
	if warning, err = m.Env.Comparable(o.Env); err != nil {
		return "", err
	}
	if m.CPUModel != o.CPUModel {
		return "", fmt.Errorf("cpu model mismatch: %q vs %q", m.CPUModel, o.CPUModel)
	}
	if m.LLCBytes != o.LLCBytes {
		return "", fmt.Errorf("last-level cache mismatch: %d vs %d bytes", m.LLCBytes, o.LLCBytes)
	}
	return warning, nil
}

// loadResults reads a result record, or every record in a directory.
func loadResults(path string) ([]*result, error) {
	paths := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []*result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := new(result)
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return out, nil
}

// benchBound is an end-to-end metric's regression bound from
// BENCHMARK.json.
type benchBound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds reads the end-to-end bounds of a BENCHMARK.json.
func readBounds(path string) (map[string]benchBound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []benchBound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchBound)
	for _, b := range def.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// compareMain compares the records of a parent commit (-base) with those
// of a change (-head), one row per workload and metric: each side's median
// over its records, the base quartiles, and the change against the
// metric's bound. It refuses (exit 2) to compare records from different
// machines, and exits 1 when an end-to-end metric got worse by more than
// its bound or the head failed more operations than the base.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	basePath := fs.String("base", "", "result record or directory of records of the parent commit")
	headPath := fs.String("head", "", "result record or directory of records of the change")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	base, err := loadResults(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	head, err := loadResults(*headPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	bounds, err := readBounds(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	ref := base[0].Machine
	for _, r := range append(base[1:], head...) {
		warn, err := ref.comparable(r.Machine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare: refusing to compare results from different machines:", err)
			return 2
		}
		if warn != "" {
			fmt.Fprintln(os.Stderr, "perfbench compare: warning:", warn)
		}
	}
	rows, worse := compareRecords(base, head, bounds)
	for _, row := range rows {
		fmt.Println(row)
	}
	if worse {
		return 1
	}
	return 0
}

// compareRecords renders the comparison rows of compareMain and reports
// whether any bound was broken or the head failed more often.
func compareRecords(base, head []*result, bounds map[string]benchBound) ([]string, bool) {
	type group struct{ base, head []*result }
	groups := make(map[string]*group)
	key := func(r *result) string { return fmt.Sprintf("%s trace=%t", r.Workload, r.Trace) }
	for _, r := range base {
		if groups[key(r)] == nil {
			groups[key(r)] = &group{}
		}
		groups[key(r)].base = append(groups[key(r)].base, r)
	}
	for _, r := range head {
		if g := groups[key(r)]; g != nil {
			g.head = append(g.head, r)
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := []string{"workload\tmetric\tbase median [q1, q3]\thead median\tchange\tbound\tverdict"}
	worse := false
	for _, k := range keys {
		g := groups[k]
		if len(g.head) == 0 {
			rows = append(rows, k+"\t(no head records)")
			continue
		}
		bf, hf := failures(g.base), failures(g.head)
		if hf > bf {
			worse = true
		}
		rows = append(rows, fmt.Sprintf("%s\tfailed/attempted\t%d/%d\t%d/%d", k, bf, attempts(g.base), hf, attempts(g.head)))
		var names []string
		for name := range g.base[0].Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			var bv, hv []float64
			for _, r := range g.base {
				bv = append(bv, r.Metrics[name])
			}
			for _, r := range g.head {
				hv = append(hv, r.Metrics[name])
			}
			bm, hm := median(bv), median(hv)
			q1, q3 := quartiles(bv)
			change := 0.0
			if bm != 0 {
				change = (hm - bm) / bm
			}
			verdict, limit := "", "-"
			if b, ok := bounds[name]; ok {
				limit = fmt.Sprintf("%.0f%%", 100*b.Bound)
				verdict = "ok"
				if (b.Better == "lower" && change > b.Bound) || (b.Better == "higher" && change < -b.Bound) {
					verdict, worse = "WORSE", true
				}
			}
			rows = append(rows, fmt.Sprintf("%s\t%s\t%.6g [%.6g, %.6g]\t%.6g\t%+.2f%%\t%s\t%s", k, name, bm, q1, q3, hm, 100*change, limit, verdict))
		}
	}
	return rows, worse
}

// failures and attempts total the failed and attempted operations of
// records.
func failures(rs []*result) (n int) {
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func attempts(rs []*result) (n int) {
	for _, r := range rs {
		n += r.Attempted
	}
	return n
}
