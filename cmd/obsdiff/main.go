// Command obsdiff compares run manifests (the -metrics output of every
// cmd binary) across runs and, with -max-regress, gates the latest run
// against the one before it.
//
//	obsdiff run_before.json run_after.json
//	obsdiff -max-regress 10% results/quality
//
// Arguments are files or directories; a directory contributes every *.json
// file directly inside it and skips the ones that are not manifests. Each
// manifest becomes one flat list of series, each with a name, a direction
// and a value: its quality_timeline points keep their probe's direction
// ("lower" or "higher" is better), and everything else (span walls, total
// wall, histogram p50/p99, counters) is "info". Manifests are grouped by
// command and machine (obs.Env.Comparable), ordered by start time, and
// shown as one table per group with a latest-vs-previous column.
//
// With -max-regress set (a percentage like "25%" or a fraction like
// "0.25"), a directional series whose latest value moved the bad way by
// more than the threshold relative to its previous value makes obsdiff
// exit 1; "info" series never gate. Without it, obsdiff only reports.
// Exit codes: 0 no breach, 1 threshold breached, 2 unusable input (a
// missing or malformed file, a manifest without machine identity, no two
// manifests of one command, or — under a gate — one command's runs
// measured on different machines).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"edgeshed/internal/obs"
)

func main() {
	maxRegress := flag.String("max-regress", "", "gate threshold, e.g. 25% or 0.25 (empty = report only)")
	cli := obs.BindFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: obsdiff [flags] file-or-dir [file-or-dir...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	sess, err := cli.Start("obsdiff")
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsdiff:", err)
		os.Exit(2)
	}
	var code int
	runErr := obs.Run(sess, func() error {
		var rerr error
		code, rerr = run(os.Stdout, flag.Args(), *maxRegress, sess)
		return rerr
	})
	if cerr := sess.Close(); runErr == nil && cerr != nil {
		runErr = cerr
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "obsdiff:", runErr)
		os.Exit(2)
	}
	os.Exit(code)
}

// Series directions: which way a value is better. Only lower and higher
// series can breach the gate.
const (
	dirLower  = "lower"
	dirHigher = "higher"
	dirInfo   = "info"
)

// series is one named, direction-tagged value of one artifact; of several
// with one name, the last is the artifact's value.
type series struct {
	name  string
	dir   string
	value float64
}

// artifact is one input manifest reduced to what the comparison needs.
type artifact struct {
	path    string
	command string
	env     *obs.Env
	start   time.Time
	series  []series
}

// group is the runs of one command on one machine, in start order.
type group struct {
	command  string
	runs     []*artifact
	warnings []string
}

// run compares the artifacts named by args and returns the process exit
// code (0 ok, 1 breach). Errors mean the inputs were unusable (exit 2).
func run(w io.Writer, args []string, maxRegressStr string, sess *obs.Session) (int, error) {
	gate, err := parseMaxRegress(maxRegressStr)
	if err != nil {
		return 0, err
	}
	arts, err := collect(args, sess)
	if err != nil {
		return 0, err
	}
	sort.SliceStable(arts, func(i, j int) bool { return arts[i].start.Before(arts[j].start) })
	groups, err := groupRuns(arts, gate >= 0)
	if err != nil {
		return 0, err
	}
	sess.Verbosef("comparing %d artifact(s) in %d group(s), gate=%v", len(arts), len(groups), gate)
	var breaches []string
	for _, g := range groups {
		breaches = append(breaches, render(w, g, gate)...)
	}
	if len(breaches) > 0 {
		fmt.Fprintf(w, "BREACH: %d series regressed beyond %s:\n", len(breaches), maxRegressStr)
		for _, b := range breaches {
			fmt.Fprintf(w, "  %s\n", b)
		}
		return 1, nil
	}
	if gate >= 0 {
		fmt.Fprintf(w, "ok: no directional series regressed beyond %s\n", maxRegressStr)
	}
	return 0, nil
}

// parseMaxRegress turns "25%" or "0.25" into the fraction 0.25; an empty
// string disables gating (returned as -1).
func parseMaxRegress(s string) (float64, error) {
	if s == "" {
		return -1, nil
	}
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bad -max-regress %q: %w", s, err)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("bad -max-regress %q: negative threshold", s)
	}
	return v, nil
}

// collect reads every manifest the arguments name, in argument order. A
// file named directly must be a manifest; a directory contributes its
// *.json files in name order and skips the ones that are not.
func collect(args []string, sess *obs.Session) ([]*artifact, error) {
	var arts []*artifact
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			art, err := readArtifact(a)
			if err != nil {
				return nil, err
			}
			arts = append(arts, art)
			continue
		}
		paths, err := filepath.Glob(filepath.Join(a, "*.json"))
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			art, err := readArtifact(p)
			if errors.Is(err, errNotArtifact) {
				sess.Verbosef("skipping %v", err)
				continue
			}
			if err != nil {
				return nil, err
			}
			arts = append(arts, art)
		}
	}
	return arts, nil
}

// errNotArtifact marks a file that is not a JSON object with a "command"
// key.
var errNotArtifact = errors.New("not a run manifest")

// readArtifact sniffs whether path is a run manifest (a JSON object with a
// "command") and extracts its quality points (the last point per metric
// and ratio is the run's final word) with their probes' directions, and
// its counters, histogram p50/p99, span walls and total wall as info.
func readArtifact(path string) (*artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w: %v", path, errNotArtifact, err)
	}
	if _, ok := probe["command"]; !ok {
		return nil, fmt.Errorf("%s: %w", path, errNotArtifact)
	}
	m, err := obs.ReadManifest(path)
	if err != nil {
		return nil, err
	}
	env := m.Env()
	if env == nil {
		return nil, fmt.Errorf("%s records no machine identity", path)
	}
	start, err := time.Parse(time.RFC3339, m.StartUTC)
	if err != nil {
		return nil, fmt.Errorf("%s: bad start_utc: %w", path, err)
	}
	art := &artifact{path: path, command: m.Command, env: env, start: start}
	for _, q := range m.Quality {
		name := q.Metric
		if q.Ratio != 0 {
			name += "@p=" + strconv.FormatFloat(q.Ratio, 'g', -1, 64)
		}
		dir := q.Better
		if dir != dirLower && dir != dirHigher {
			dir = dirInfo
		}
		art.series = append(art.series, series{name, dir, q.Value})
	}
	info := func(name string, v float64) { art.series = append(art.series, series{name, dirInfo, v}) }
	for k, v := range m.Counters {
		info("counter "+k, float64(v))
	}
	for k, h := range m.Histograms {
		info("histogram "+k+" p50", h.Quantile(0.50))
		info("histogram "+k+" p99", h.Quantile(0.99))
	}
	spans := map[string]int64{}
	flattenSpans(m.Spans, "", spans)
	for path, ns := range spans {
		info("span "+path+" wall_ns", float64(ns))
	}
	info("wall_ns", float64(m.WallNs))
	return art, nil
}

// flattenSpans accumulates every span's DurNs into out keyed by its
// slash-joined path from the root; repeated sibling names (e.g. one span
// per experiment cell) merge into one total.
func flattenSpans(n *obs.SpanNode, prefix string, out map[string]int64) {
	if n == nil {
		return
	}
	path := n.Name
	if prefix != "" {
		path = prefix + "/" + n.Name
	}
	out[path] += n.DurNs
	for _, c := range n.Children {
		flattenSpans(c, path, out)
	}
}

// groupRuns buckets start-ordered artifacts by command and comparable
// machine, collecting each group's toolchain warnings. It fails when no
// two artifacts share a command, and, under a gate, when one command's
// runs were measured on different machines: the gate compares one
// machine's runs only, so a lone run on a new machine would pass unchecked.
func groupRuns(arts []*artifact, gated bool) ([]*group, error) {
	var groups []*group
	perCommand := map[string][]*group{}
	counts := map[string]int{}
next:
	for _, a := range arts {
		counts[a.command]++
		var mismatch error
		for _, g := range perCommand[a.command] {
			warning, err := g.runs[0].env.Comparable(a.env)
			if err != nil {
				mismatch = err
				continue
			}
			if warning != "" && !slices.Contains(g.warnings, warning) {
				g.warnings = append(g.warnings, warning)
			}
			g.runs = append(g.runs, a)
			continue next
		}
		if mismatch != nil && gated {
			return nil, fmt.Errorf("%s runs come from different machines (%v); the gate compares one machine's runs only", a.command, mismatch)
		}
		g := &group{command: a.command, runs: []*artifact{a}}
		perCommand[a.command] = append(perCommand[a.command], g)
		groups = append(groups, g)
	}
	for _, n := range counts {
		if n >= 2 {
			return groups, nil
		}
	}
	return nil, fmt.Errorf("nothing to compare: no two of the %d artifact(s) share a command", len(arts))
}

// row is one series across a group's runs; values[i] is nil where run i
// did not record it.
type row struct {
	name   string
	dir    string
	values []*float64
}

// render writes one group's header, run legend and table, and returns the
// group's gate breaches.
func render(w io.Writer, g *group, gate float64) []string {
	env := g.runs[0].env
	fmt.Fprintf(w, "## %s — %s/%s, %d CPUs\n\n", g.command, env.GOOS, env.GOARCH, env.CPUs)
	for _, warning := range g.warnings {
		fmt.Fprintf(w, "warning: %s\n", warning)
	}
	for i, r := range g.runs {
		line := fmt.Sprintf("- run %d: %s (%s) %s", i+1, filepath.Base(r.path),
			r.start.Format(time.RFC3339Nano), r.env.GoVersion)
		if r.env.GitCommit != "" {
			line += " @" + r.env.GitCommit
		}
		fmt.Fprintln(w, line)
		if r.env.Dirty() {
			fmt.Fprintf(w, "  warning: %s was measured on a dirty worktree (%s) — its commit does not identify the code\n",
				filepath.Base(r.path), r.env.GitCommit)
		}
	}

	byName := map[string]*row{}
	var rows []*row
	for i, r := range g.runs {
		for _, s := range r.series {
			rw, ok := byName[s.name]
			if !ok {
				rw = &row{name: s.name, dir: s.dir, values: make([]*float64, len(g.runs))}
				byName[s.name] = rw
				rows = append(rows, rw)
			}
			v := s.value
			rw.values[i] = &v
		}
	}
	// Directional series first, each half by name.
	sort.Slice(rows, func(i, j int) bool {
		if (rows[i].dir == dirInfo) != (rows[j].dir == dirInfo) {
			return rows[j].dir == dirInfo
		}
		return rows[i].name < rows[j].name
	})

	fmt.Fprint(w, "\n| series | better |")
	for i := range g.runs {
		fmt.Fprintf(w, " run %d |", i+1)
	}
	fmt.Fprint(w, " latest vs previous |\n|---|---|")
	fmt.Fprint(w, strings.Repeat("---|", len(g.runs)+1), "\n")
	var breaches []string
	for _, rw := range rows {
		fmt.Fprintf(w, "| %s | %s |", rw.name, rw.dir)
		var present []float64
		for _, v := range rw.values {
			if v == nil {
				fmt.Fprint(w, " — |")
				continue
			}
			present = append(present, *v)
			fmt.Fprintf(w, " %s |", formatValue(*v))
		}
		if len(present) < 2 {
			fmt.Fprintln(w, " — |")
			continue
		}
		prev, latest := present[len(present)-2], present[len(present)-1]
		fmt.Fprintf(w, " %s |\n", change(prev, latest))
		if worse := regression(rw.dir, prev, latest); gate >= 0 && worse > gate {
			breaches = append(breaches, fmt.Sprintf("%s %s: %s -> %s (%+.1f%% worse, limit %.1f%%, better=%s)",
				g.command, rw.name, formatValue(prev), formatValue(latest), worse*100, gate*100, rw.dir))
		}
	}
	fmt.Fprintln(w)
	return breaches
}

// regression is how far latest moved the bad way from prev, relative to
// prev's magnitude; zero or negative means no regression, and info series
// never regress. A move off a zero baseline the bad way is unboundedly
// worse, so it breaches any gate.
func regression(dir string, prev, latest float64) float64 {
	d := (latest - prev) / math.Max(math.Abs(prev), 1e-12)
	switch dir {
	case dirLower:
		return d
	case dirHigher:
		return -d
	}
	return 0
}

// change formats the signed latest-vs-previous move as a percentage.
func change(prev, latest float64) string {
	if prev == 0 {
		if latest == 0 {
			return "+0.0%"
		}
		return "from 0"
	}
	return fmt.Sprintf("%+.1f%%", (latest-prev)/math.Abs(prev)*100)
}

// formatValue prints integral values (counts, ns) exactly and others to
// six significant digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
