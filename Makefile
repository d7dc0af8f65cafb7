# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench obsdiff experiments claims profile fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/par/ ./internal/analysis/ ./internal/tasks/ \
		./internal/centrality/ ./internal/uds/ ./internal/stream/ \
		./internal/core/ ./internal/matching/ ./internal/obs/ ./internal/msbfs/

bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Compare run manifests (-metrics output of any cmd binary) with
# cmd/obsdiff: one table per command and machine, runs in start order. RUNS
# lists files or directories. With MAX_REGRESS set, exits non-zero when the
# latest run of any quality series moved the bad way beyond it; empty
# reports only. Whole-pipeline and per-layer time is perfbench's job:
# `bash perfbench/run.sh` (BENCHMARK.json).
#
#	make obsdiff RUNS="run1.json run2.json"
#	make obsdiff RUNS=results/quality MAX_REGRESS=10%
RUNS ?= results
MAX_REGRESS ?=
obsdiff:
	$(GO) run ./cmd/obsdiff -max-regress '$(MAX_REGRESS)' $(RUNS)

# Reproduce every paper artifact at laptop scale and self-audit the shapes.
experiments:
	$(GO) run ./cmd/experiments -run all -scale 32 -out results/full_scale32.txt
	$(GO) run ./cmd/checkclaims -in results/full_scale32.txt

claims:
	$(GO) run ./cmd/checkclaims -in results/full_scale8.txt

# Capture a worked observability example (EXPERIMENTS.md): a CRR reduction
# of a scale-16 ca-HepPh stand-in with a JSON run manifest, CPU profile and
# execution trace, then summarize the profile.
profile:
	mkdir -p results/profile
	$(GO) run ./cmd/gengraph -dataset ca-HepPh -scale 16 -seed 1 -out results/profile/hepph.txt
	$(GO) run ./cmd/shed -in results/profile/hepph.txt -out results/profile/reduced.txt \
		-method crr -p 0.5 -seed 1 \
		-metrics results/profile/run.json -stats-json results/profile/stats.json \
		-profile cpu -profile-out results/profile/cpu.pprof -trace results/profile/trace.out
	$(GO) tool pprof -top -nodecount 15 results/profile/cpu.pprof

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f test_output.txt bench_output.txt
