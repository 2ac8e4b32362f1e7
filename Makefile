# Developer entry points. `make ci` is exactly what the CI workflow
# runs; the individual targets exist for quick local iteration.

GO ?= go

# Packages with shared mutable state (the cache core and its two
# instances, lazy graph caches, chase sessions, the worker pool,
# parallel PLL construction) that must stay clean under the race
# detector. The cache stripes, singleflight, and eviction paths all live
# in internal/anscache; internal/match and internal/chase race the star
# cache and the answer memo built on it.
# A clean run here is also what enforces the `// guarded by <mu>` field
# comments (DESIGN.md §9).
# cmd/wqe-datagen is deliberately absent: it spawns no goroutines of
# its own (the parallel PLL build it calls is raced via
# internal/distindex), so racing it would only slow CI down.
RACE_PKGS = ./internal/graph ./internal/match ./internal/chase ./internal/par ./internal/distindex ./internal/anscache ./internal/hist ./internal/loadgen ./cmd/wqe-serve

.PHONY: all build vet fmt-check test race lint check fuzz bench-smoke profile benchmark benchmark-check bench-load ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Repo-specific static analysis: the six wqe-lint rules that go vet,
# -race and the tests do not cover (internal/lint, README "Static
# analysis & CI", DESIGN.md §9). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/wqe-lint ./...

# Short randomized hammering, 10 s each, on top of the committed corpora
# (which `go test` always replays as regression inputs): the binary
# snapshot reader — any accepted input must re-encode byte-identically —,
# the JSON reader — it must accept what the encoding/json walk it
# replaced accepts, and build the same graph —, the key encoder —
# pattern nodes with equal signatures must admit the same candidates,
# in whatever order they list their literals — and wqe-serve's question
# decoder — each body must compile to the jobs the encoding/json
# decoding it replaced compiles, or fail in both.
fuzz:
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzSnapshotReader -fuzztime 10s
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzReadJSON -fuzztime 10s
	$(GO) test ./internal/query -run '^$$' -fuzz FuzzNodeSig -fuzztime 10s
	$(GO) test ./cmd/wqe-serve -run '^$$' -fuzz FuzzDecodeAsk -fuzztime 10s

# Run the generation, BFS and star-table micro-benchmarks once each, so
# they cannot rot: BenchmarkGenRefine (cold and warm partner sets, and
# warm with every attribute irregular), the Ball/VisitBall pair,
# BenchmarkTraverserBall (small balls by Ball vs by one Traverser),
# BenchmarkVisitBalls (64 single visits vs one batched sweep),
# BenchmarkBuildStarTable (the same stars built fresh and derived from
# the parent's table; B/cell), BenchmarkAsk (one whole question per
# algorithm, what `make profile` profiles; generating its workload-sized
# question pools takes about a second), the two graph loaders,
# BenchmarkReadJSON and BenchmarkReadSnapshot (MB/s),
# BenchmarkCachePutFull (an evicting Put on a full cache core), and
# BenchmarkDecodeAsk (one /askfast body to a compiled job, through the
# encoding/json path it replaced and through wqe-serve's one-pass
# decoder; allocs reported).
bench-smoke:
	$(GO) test -run '^$$' -bench 'GenRe|Ball|StarTable|Ask|ReadJSON|ReadSnapshot|CachePutFull' -benchtime 1x ./internal/chase ./internal/graph ./internal/match ./internal/anscache ./cmd/wqe-serve

# Where a question's time goes: BenchmarkAsk asks whole Why-questions the
# way the benchmark's explore_heu and explore_answ workloads do (seeded
# products graph, a question pool of the workload's size, one Session,
# fresh Why per question, Workers=1), one profiled run of 1200 questions
# per algorithm, most of them on a full star cache as in the benchmark's
# window. Leaves the test binary and ask-{heu,answ}.{cpu,mem}.prof in
# .bench_build/ and prints, per algorithm, the top of the CPU profile by
# cumulative time and then the top allocation sites of the heap profile by
# bytes allocated over the run (add -sample_index=alloc_objects for
# counts); `go tool pprof -list <func> .bench_build/chase.test
# .bench_build/ask-heu.cpu.prof` for more.
profile:
	mkdir -p .bench_build
	for a in heu answ; do \
		$(GO) test -run '^$$' -bench "Ask/$$a" -benchtime 1200x \
			-o .bench_build/chase.test -outputdir $(abspath .bench_build) \
			-cpuprofile ask-$$a.cpu.prof -memprofile ask-$$a.mem.prof ./internal/chase || exit 1; \
		$(GO) tool pprof -top -cum -nodecount 40 .bench_build/chase.test .bench_build/ask-$$a.cpu.prof || exit 1; \
		$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 .bench_build/chase.test .bench_build/ask-$$a.mem.prof || exit 1; \
	done

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): all four
# workloads, untraced then traced, one table and one JSON line. About
# five minutes.
benchmark:
	$(GO) run ./benchmark -seed 7

# One short traced pass of one workload as a correctness gate: every
# answer is re-derived by a cache-less matcher over BFS distances, and
# the run exits non-zero on `correct: false`. About 12 s.
benchmark-check:
	$(GO) run ./benchmark --workload explore_heu --seed 7 --seconds 3 --trace 1

# Everything a PR must pass, without the benchmark regeneration.
check: build vet fmt-check test race lint bench-smoke benchmark-check

# Regenerate BENCH_load.json: million-node cold start — JSON vs binary
# snapshot load wall time (fastest of three loads each; the snapshot must
# load no slower than the JSON), bytes on disk, heap residency, PLL build vs
# embedded-label restore, and AskAll throughput over the restored
# graph (byte-identical to fresh, asserted). WQE_LOAD_BENCH_NODES
# scales the instance down for quick local runs.
bench-load:
	WQE_LOAD_BENCH_JSON=$(abspath BENCH_load.json) $(GO) test ./internal/chase -run TestEmitLoadBench -timeout 1800s -v

ci: check fuzz bench-load
