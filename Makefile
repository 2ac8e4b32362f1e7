# Developer entry points. `make ci` is exactly what the CI workflow
# runs; the individual targets exist for quick local iteration.

GO ?= go

# Packages with shared mutable state (the cache core and its two
# instances, the graph's lazy diameter and key ranks, chase sessions,
# the worker pool, parallel PLL construction) that must stay clean under
# the race detector. The cache stripes, singleflight, and eviction paths all live
# in internal/anscache; internal/match and internal/chase race the star
# cache and the answer memo built on it.
# A clean run here is also what enforces the `// guarded by <mu>` field
# comments (DESIGN.md §9).
# cmd/wqe-datagen is deliberately absent: it spawns no goroutines of
# its own (the parallel PLL build it calls is raced via
# internal/distindex), so racing it would only slow CI down.
RACE_PKGS = ./internal/graph ./internal/match ./internal/chase ./internal/par ./internal/distindex ./internal/anscache ./internal/hist ./internal/loadgen ./cmd/wqe-serve

.PHONY: all build vet fmt-check test race lint examples check fuzz bench-smoke profile benchmark benchmark-check bench-load ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Shuffled, so a fixture shared by a package's tests cannot come to depend
# on which test builds it first; a failing run prints the seed to replay
# with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Repo-specific static analysis: the six wqe-lint rules that go vet,
# -race and the tests do not cover (internal/lint, README "Static
# analysis & CI", DESIGN.md §9). Exits non-zero on any finding.
lint:
	$(GO) run ./cmd/wqe-lint ./...

# Run each program under examples/ once; any non-zero exit fails the
# target. A few seconds with a warm build cache.
examples:
	@for e in examples/*/; do echo "go run ./$$e"; $(GO) run ./$$e > /dev/null || exit 1; done

# Short randomized hammering, 10 s each, on top of the committed corpora
# (which `go test` always replays as regression inputs): the binary
# snapshot reader — any accepted input must re-encode byte-identically —,
# the PLL label blob reader — likewise —, the JSON reader — it must accept what the encoding/json walk it
# replaced accepts, and build the same graph —, the key encoder —
# pattern nodes with equal signatures must admit the same candidates,
# in whatever order they list their literals — and the job decoder
# chase.DecodeJob, reached through wqe-serve's requests — each body must
# compile to the jobs the encoding/json decoding it replaced compiles, or
# fail in both.
fuzz:
	$(GO) test ./internal/graph -run '^$$' -fuzz FuzzSnapshotReader -fuzztime 10s
	$(GO) test ./internal/distindex -run '^$$' -fuzz FuzzUnmarshalPLL -fuzztime 10s
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
# question pools takes about a second; and the scaling curve's heu_2k and
# heu_18k, with heu_180k, whose graph takes seconds to build, skipped by
# -short), the two graph loaders,
# BenchmarkReadJSON and BenchmarkReadSnapshot (MB/s, and heap-B/node:
# the live heap the loaded graph holds),
# BenchmarkCachePutFull (an evicting Put on a full cache core),
# BenchmarkDecodeAsk (one /askfast body to a compiled job, through the
# encoding/json path it replaced and through chase.DecodeJob as
# wqe-serve reaches it; allocs reported), and BenchmarkAskHit (one
# answer-memo hit on /askfast and on /why through wqe-serve's mux, in
# process: decode to stored body; allocs reported).
bench-smoke:
	$(GO) test -short -run '^$$' -bench 'GenRe|Ball|StarTable|Ask|ReadJSON|ReadSnapshot|CachePutFull' -benchtime 1x ./internal/chase ./internal/graph ./internal/match ./internal/anscache ./cmd/wqe-serve

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
# .bench_build/ask-heu.cpu.prof` for more. Last, per algorithm, it prints
# the share of the search's CPU (beamSearch for heu, TopK for answ) spent
# in runtime map code, MAPCODE: pprof shows only those frames and the
# search's own, so the search's flat time is what no map frame lies under;
# and the share of all CPU samples under runtime.mallocgc and under the GC
# mark workers (runtime.gcBgMarkWorker), what allocation costs, and under
# Session.Why, what compiling a question (exemplar, rep(E, V), focus
# candidates) costs before its search.
MAPCODE = ^(runtime\.(map|makemap|memhash|strhash|aeshash|f64hash|typehash|interhash|nilinterhash)|internal/runtime/maps\.|aeshashbody|type:\.hash\.)
profile:
	mkdir -p .bench_build
	for a in heu answ; do \
		$(GO) test -run '^$$' -bench "Ask/^$$a$$" -benchtime 1200x \
			-o .bench_build/chase.test -outputdir $(abspath .bench_build) \
			-cpuprofile ask-$$a.cpu.prof -memprofile ask-$$a.mem.prof ./internal/chase || exit 1; \
		$(GO) tool pprof -top -cum -nodecount 40 .bench_build/chase.test .bench_build/ask-$$a.cpu.prof || exit 1; \
		$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 .bench_build/chase.test .bench_build/ask-$$a.mem.prof || exit 1; \
	done
	for a in heu answ; do \
		$(GO) tool pprof -top -unit=ms -focus 'beamSearch|TopK' -show '$(MAPCODE)|\.\(\*Why\)\.(beamSearch|TopK)$$' \
			.bench_build/chase.test .bench_build/ask-$$a.cpu.prof 2>/dev/null | \
			awk -v a=$$a '/\.\(\*Why\)\.(beamSearch|TopK)$$/ { f = $$1; c = $$4; sub("ms", "", f); sub("ms", "", c); \
				printf "%s: runtime map code %.1f%% of search CPU (%d of %d ms)\n", a, 100 * (c - f) / c, c - f, c }'; \
		$(GO) tool pprof -top -cum -nodecount 1000 .bench_build/chase.test .bench_build/ask-$$a.cpu.prof 2>/dev/null | \
			awk -v a=$$a '$$NF == "runtime.mallocgc" { m = $$5 } $$NF == "runtime.gcBgMarkWorker" { g = $$5 } \
				/chase\.\(\*Session\)\.Why( \(inline\))?$$/ { w += $$5 } \
				END { printf "%s: runtime.mallocgc %s of CPU samples, GC mark workers %s\n", a, m, g; \
					printf "%s: Session.Why %.1f%% of CPU samples\n", a, w }'; \
	done

# The repo's benchmark (BENCHMARK.json, benchmark/README.md): all four
# workloads, untraced then traced, one table and one JSON line. About
# five minutes.
benchmark:
	$(GO) run ./benchmark -seed 7

# Short traced passes of the two library workloads as a correctness
# gate: the beam (explore_heu), and AnsW/TopK with cl⁺ pruning and star
# cache eviction (explore_answ). Every answer is re-derived by a
# cache-less matcher over BFS distances, and each run exits non-zero on
# `correct: false`. Then a short untraced serve_repeat pass: wqe-serve
# answering from its memo, each hit body compared with the body its
# question got in the warm-up, which guards the response bodies memo
# entries store. About 25 s.
benchmark-check:
	$(GO) run ./benchmark --workload explore_heu --seed 7 --seconds 3 --trace 1
	$(GO) run ./benchmark --workload explore_answ --seed 7 --seconds 3 --trace 1
	$(GO) run ./benchmark --workload serve_repeat --seed 7 --seconds 3 --trace 0

# Everything a PR must pass, without the benchmark regeneration.
check: build vet fmt-check test race lint examples bench-smoke benchmark-check

# Regenerate BENCH_load.json: million-node cold start — JSON vs binary
# snapshot load wall time (fastest of three loads each; the snapshot must
# load no slower than the JSON), bytes on disk, heap residency, PLL build vs
# embedded-label restore, and AskAll throughput over the restored
# graph (byte-identical to fresh, asserted). WQE_LOAD_BENCH_NODES
# scales the instance down for quick local runs.
bench-load:
	WQE_LOAD_BENCH_JSON=$(abspath BENCH_load.json) $(GO) test ./internal/chase -run TestEmitLoadBench -timeout 1800s -v

ci: check fuzz bench-load
