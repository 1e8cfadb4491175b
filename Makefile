GO ?= go

# Minimum total statement coverage enforced by `make cover` (percent).
# Measured at 74.7% when the gate was introduced and 76.9% when the
# flow-analysis lint suite landed; raise as tests grow, never lower it
# to make a build pass.
COVER_FLOOR ?= 76.0

.PHONY: build test race lint flow-lint fmt-check smoke bench-smoke chaos-smoke serve-smoke cover obs-check kernel-check image-check sparse-check bench-module verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/nebula-lint ./...

# Explicit gate on the type-aware flow analyzers (DESIGN.md §11): the
# kernel-invalidation, hot-path-allocation and context-propagation
# contracts must hold with zero unsuppressed error findings. The full
# lint run covers these too; this target isolates them so a CI failure
# names the violated contract.
flow-lint:
	$(GO) run ./cmd/nebula-lint -rules genstamp,hotalloc,ctxflow -format json ./... > /dev/null
	@echo "flow invariants hold: genstamp, hotalloc, ctxflow"

# Fast reliability smoke: the full three-curve fault study at tiny scale
# (injection, BIST, write-verify, sparing, degradation accounting).
smoke:
	$(GO) test ./internal/experiments -run TestFaultResilienceSmoke -count=1

# Session-engine throughput smoke: one iteration of every BenchmarkSession
# variant under the race detector — catches data races in the concurrent
# batch engine without paying for a full benchmark run.
bench-smoke:
	$(GO) test -race -run '^$$' -bench BenchmarkSession -benchtime 1x .

# Resilience chaos smoke: one seeded fault storm at smoke scale under
# the race detector — routing, online scrub, retirement, recompile and
# bitwise-deterministic retry all exercised in seconds (DESIGN.md §12).
chaos-smoke:
	$(GO) test -race -count=1 ./internal/experiments -run TestResilienceSmoke
	$(GO) test -race -count=1 ./internal/fleet

# Serving-tier smoke: the dynamic-batching frontend under the race
# detector — coalescing, backpressure, graceful drain, per-request
# deadlines and bitwise determinism across batch shapes (DESIGN.md §14).
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve
	$(GO) test -race -count=1 ./internal/experiments -run TestServeSmoke

# Coverage gate: fails if total statement coverage drops below
# COVER_FLOOR. Writes coverage.out and a browsable coverage.html.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -html=coverage.out -o coverage.html
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Observability determinism gate: the exported counter record must be
# bitwise identical between a sequential and a parallel run of the same
# batch — the shard-merge contract of internal/obs (DESIGN.md §9).
# The record embeds the full obs snapshot, so the skip
# counters (silent_stage_skips, spikes_skipped, packed_words,
# repeat_reads) are byte-diffed across parallelism here too.
obs-check:
	$(GO) run ./cmd/nebula-bench -exp obs -parallel 1 -obsout BENCH_obs_seq.json
	$(GO) run ./cmd/nebula-bench -exp obs -parallel 4 -obsout BENCH_obs.json
	cmp BENCH_obs_seq.json BENCH_obs.json
	@echo "obs snapshots bitwise identical across parallelism"

# Frozen-kernel equivalence gate: the differential fuzz suite proving the
# baked read kernels (index and packed, graded and binary lane reads,
# noiseless and noisy) are bitwise identical to the dense read, that
# Compile leaves every routed array baked, and that no run (Run,
# RunBatch, RunReference) leaves a kernel stale or an array changed,
# under the race detector, then 10 s of FuzzMACReadKernel (DESIGN.md
# §10). The session-level identity matrix runs in sparse-check.
kernel-check:
	$(GO) test -race -count=1 ./internal/crossbar -run 'TestMACReadKernel|TestKernelInvalidation|TestKernelFresh|TestMACReadPacked|TestMACReadPackedBinary|TestMACReadPackedLaneGuard'
	$(GO) test -race -count=1 ./internal/arch -run 'TestCompileBakesKernels|TestRunsNeverMutateArrays'
	$(GO) test -run '^$$' -fuzz '^FuzzMACReadKernel$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/crossbar
	@echo "frozen kernels bitwise identical to the dense reference"

# Event-driven identity gate (DESIGN.md §15): the packed-plane property
# suite, the conv gather tables' bit and float property tests, the
# session-level Run-vs-RunReference identity matrix at parallelism
# 1/4/NumCPU under the race detector (stale-kernel conv rows and
# Bernoulli-input rows at 1% and 100% activity included, every
# production counter equal across parallelism), the repeat-cache and
# counter-determinism test, and the check that a σ-0 noise generator
# leaves the skips on. This is the one named gate that runs the
# identity matrix; `make race` runs it again with the whole suite.
# Timing lives in _benchmark and `go test -bench BenchmarkSession`.
sparse-check:
	$(GO) test -race -count=1 ./internal/spikeplane
	$(GO) test -race -count=1 ./internal/arch -run 'TestSessionReferenceIdentity|TestSessionProductionEngagesPlanes|TestSessionEventDrivenSkipsAndRepeats|TestNoiselessGeneratorKeepsSkips|TestSuperTileEvaluateReadPacked|TestGatherTable|TestGatherBitsMatchPack'
	@echo "production walk bitwise identical to the reference walk"

# Chip-image determinism gate (DESIGN.md §13): two compiles of the same
# model and options must emit byte-identical images, a session loaded
# from an image must re-save to the exact same bytes, and loaded
# sessions must reproduce compiled outputs and obs snapshots bit for
# bit, under the race detector. A short fuzz run then holds the state-blob
# decoder to "error or clean import, never a panic"; the minimize budget
# keeps the run fuzzing instead of shrinking kilobyte-sized seeds.
image-check:
	$(GO) test -race -count=1 ./internal/arch -run 'TestImageByteIdenticalAcrossCompiles|TestImageStableAcrossLoad|TestImageRoundTripBitwise'
	$(GO) test -race -count=1 ./internal/image
	$(GO) test -run '^$$' -fuzz '^FuzzImportStateBlob$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/crossbar
	@echo "chip images byte-deterministic; loaded sessions bitwise identical"

# Benchmark-module gate: _benchmark is its own module (outside ./...),
# so exported-API changes in the simulator must be checked against it
# explicitly.
bench-module:
	cd _benchmark && $(GO) vet . && $(GO) test .

# `cover` runs the whole suite without -race, so verify leaves out
# `test`, which would run it a second time.
verify: build fmt-check lint flow-lint race smoke bench-smoke chaos-smoke serve-smoke cover obs-check kernel-check image-check sparse-check bench-module
