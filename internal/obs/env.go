package obs

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
)

// Env identifies the machine and toolchain a measurement was taken on. It
// is embedded in BENCH_*.json baselines (cmd/benchjson) and lifted from run
// manifests (Manifest.Env), so cmd/obsdiff groups runs by machine and never
// gates numbers from different machines against each other.
type Env struct {
	// GoVersion is runtime.Version() of the measuring process.
	GoVersion string `json:"go_version"`
	// GOOS and GOARCH identify the platform.
	GOOS string `json:"goos"`
	// GOARCH is the architecture half of the platform pair.
	GOARCH string `json:"goarch"`
	// CPUs is runtime.NumCPU of the measuring machine.
	CPUs int `json:"cpus"`
	// GitCommit is the repository HEAD at measurement time, when the
	// measuring process ran inside a git checkout; empty otherwise. A
	// "-dirty" suffix means the worktree had uncommitted modifications, so
	// the commit does not fully identify the measured code.
	GitCommit string `json:"git_commit,omitempty"`
}

// CaptureEnv records the current process's environment identity. The git
// commit is best-effort: a missing git binary or a non-repository working
// directory leaves it empty rather than failing.
func CaptureEnv() *Env {
	return &Env{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GitCommit: gitCommit(),
	}
}

// gitCommit returns the short HEAD hash with a "-dirty" suffix when the
// worktree has uncommitted modifications, or "" when unavailable. The
// dirtiness check is best-effort too: if `git status` fails, the bare hash
// is returned rather than nothing.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	c := strings.TrimSpace(string(out))
	if c == "" {
		return ""
	}
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(st))) > 0 {
		c += dirtySuffix
	}
	return c
}

// dirtySuffix marks a commit stamp taken from a modified worktree.
const dirtySuffix = "-dirty"

// Dirty reports whether the env's commit stamp came from a modified
// worktree. Comparison consumers warn on such artifacts: the commit does
// not identify the measured code. Nil-safe: an unrecorded env is not dirty.
func (e *Env) Dirty() bool {
	return e != nil && strings.HasSuffix(e.GitCommit, dirtySuffix)
}

// Comparable reports whether perf numbers measured under e and other can be
// meaningfully compared: same OS, architecture and CPU count. A differing
// Go toolchain shifts numbers too, but PRs bump toolchains on purpose, so
// that difference is returned as a warning string rather than an error.
// Either side nil means the environment is unrecorded (a pre-env baseline);
// that is not an error — the caller cannot verify, and should say so.
func (e *Env) Comparable(other *Env) (warning string, err error) {
	if e == nil || other == nil {
		return "environment not recorded on both sides; machine match unverified", nil
	}
	if e.GOOS != other.GOOS || e.GOARCH != other.GOARCH {
		return "", fmt.Errorf("platform mismatch: %s/%s vs %s/%s", e.GOOS, e.GOARCH, other.GOOS, other.GOARCH)
	}
	if e.CPUs != other.CPUs {
		return "", fmt.Errorf("cpu count mismatch: %d vs %d", e.CPUs, other.CPUs)
	}
	if e.GoVersion != other.GoVersion {
		return fmt.Sprintf("go toolchain differs: %s vs %s", e.GoVersion, other.GoVersion), nil
	}
	return "", nil
}
