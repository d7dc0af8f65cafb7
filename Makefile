# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race bench bench-centrality bench-tasks bench-shedding bench-ingest bench-bfs obsdiff experiments claims profile fmt vet clean

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

# Refresh the betweenness perf baseline: map-indexed (oracle) vs CSR-indexed
# Brandes micro-benchmarks, plus the preserved per-source edge scorer vs the
# batched MS-BFS edge-dependency fold (this pair is CRR Phase 1 before and
# after batching), recorded as JSON so PRs can diff the trajectory.
bench-centrality:
	$(GO) test -run xxx -bench 'Betweenness(Map|CSR)Indexed|EdgeBetweennessScores(PerSource|MSBFS)$$' -benchtime 3x -benchmem ./internal/centrality/ \
		| $(GO) run ./cmd/benchjson -out BENCH_betweenness.json
	cat BENCH_betweenness.json

# Refresh the analysis-task perf baseline: seed serial kernels vs the
# parallel CSR kernels at 4 workers (distance profile and clustering),
# recorded as JSON. -benchtime 5x keeps the derived speedups stable.
bench-tasks:
	$(GO) test -run xxx -bench '(DistanceProfile|Clustering)(Serial|Parallel)' -benchtime 5x -benchmem ./internal/analysis/ \
		| $(GO) run ./cmd/benchjson -out BENCH_tasks.json
	cat BENCH_tasks.json

# Refresh the shedding-core perf baseline: map-indexed (seed-era oracle)
# reducers vs the edge-id-native CSR implementations, the serial vs
# parallel CRR sweep, and the end-to-end exact-betweenness CRR reduction
# with Phase 1 per-source vs batched MS-BFS, recorded as JSON.
# -benchtime 10x keeps the derived speedups stable.
bench-shedding:
	$(GO) test -run xxx -bench '(CRRReduce|BM2Reduce|GreedyBMatching|ShedderInsert)(Map|CSR)Indexed|CRRSweep(Serial|Parallel)|CRRReduceExact(PerSource|MSBFS)$$' -benchtime 10x -benchmem \
		./internal/core/ ./internal/matching/ ./internal/stream/ \
		| $(GO) run ./cmd/benchjson -out BENCH_shedding.json
	cat BENCH_shedding.json

# Refresh the ingestion perf baseline: parsing the text edge list from
# scratch vs mmap-loading the packed-CSR (.esc) file, plus the out-of-core
# external-sort packer, recorded as JSON. The derived Ingest speedup is the
# parse-once-load-forever payoff of the packed format.
bench-ingest:
	$(GO) test -run xxx -bench 'Ingest(TextLoad|PackedLoad|ExtsortPack)' -benchtime 5x -benchmem ./internal/graph/ \
		| $(GO) run ./cmd/benchjson -out BENCH_ingest.json
	cat BENCH_ingest.json

# Refresh the BFS-kernel perf baseline: the replaced one-BFS-per-source
# kernels vs the bit-parallel MS-BFS engine (closeness, distance profile,
# node betweenness), single worker so the derived PerSource/MSBFS speedups
# measure the batching alone. Recorded as JSON; gate with `make obsdiff`.
bench-bfs:
	$(GO) test -run xxx -bench '(Closeness|NodeBetweenness|DistanceProfile)(PerSource|MSBFS)$$' -benchtime 5x -benchmem \
		./internal/centrality/ ./internal/analysis/ \
		| $(GO) run ./cmd/benchjson -out BENCH_bfs.json
	cat BENCH_bfs.json

# Compare run manifests (-metrics output) and BENCH_*.json baselines with
# cmd/obsdiff: one table per command and machine, runs in start order
# (baselines in argument order). RUNS lists files or directories. With
# MAX_REGRESS set, exits non-zero when the latest run of any quality series
# or benchmark ns/op / allocs/op moved the bad way beyond it; empty reports
# only.
#
#	make bench-shedding && cp BENCH_shedding.json base.json
#	... hack ...
#	make bench-shedding && make obsdiff RUNS="base.json BENCH_shedding.json" MAX_REGRESS=25%
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
