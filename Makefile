# GradSec reproduction — build/test/bench entry points.
#
#   make build        compile everything
#   make vet          static checks
#   make fmt-check    fail when any Go file is not gofmt-clean
#   make test         full test suite, race detector enabled
#   make fuzz-check   run the fuzz corpora in regression mode (no fuzzing)
#   make bench        all artefact + fleet benchmarks (one iteration each)
#   make bench-fleet  fixed-benchtime fleet benchmarks -> bench/fleet.txt
#   make bench-secagg secagg privacy-ladder benchmarks -> bench/secagg.txt
#   make bench-hier   hierarchical fan-in benchmarks   -> bench/hier.txt
#   make bench-async  async buffered-federation benchmarks -> bench/async.txt
#   make bench-recover journal-replay vs re-attest benchmarks -> bench/recover.txt
#   make bench-obs    telemetry-overhead benchmarks (off vs on) -> bench/obs.txt
#   make bench-smoke  every benchmark once, small cases only (CI)
#   make smoke-telemetry run the observability example end to end
#   make check        build + gofmt + vet + test + fuzz regression + telemetry smoke (CI gate)
#   make perf         the repo benchmark (BENCHMARK.json) on each of its workloads
#
# Benchmark artefacts land in the git-ignored bench/ directory.

GO ?= go

.PHONY: build vet fmt-check test fuzz-check bench bench-fleet bench-secagg bench-hier bench-async bench-recover bench-obs bench-smoke smoke-telemetry check perf

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lists every unformatted Go file outside the benchmark build directory
# and fails if there is any.
fmt-check:
	@unformatted=$$(find . -name '*.go' -not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test -race ./...

# Replays the fuzz seed corpora as ordinary tests. `make test` already
# covers the seeds implicitly (go test runs fuzz targets as unit tests);
# this target is the explicit, fast regression gate for the decoder
# corpora and the entry point documented for CI. Real fuzzing is
# `go test -fuzz FuzzReadFrame ./internal/wire` etc.
fuzz-check:
	$(GO) test -run 'Fuzz' ./internal/wire ./internal/fl ./internal/journal ./internal/obs ./internal/secagg

# The legacy full-pairwise masked rounds (mask expansion is
# O(cohort² · model)) exceed go test's default 10m timeout.
bench:
	$(GO) test -run xxx -bench . -benchtime=1x -benchmem -timeout 60m .

# Fixed-iteration fleet benchmark sweep (clients × codec), captured as a
# comparable artefact. Not part of `check`: it takes minutes. Written to
# the file first so a failing run propagates its exit status (a bare
# pipe into tee would mask it).
bench-fleet:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkFleetRound' -benchtime=2x -benchmem . > bench/fleet.txt; \
	status=$$?; cat bench/fleet.txt; exit $$status

# The telemetry example doubles as the observability smoke test: it
# runs a metered fleet, serves the admin listener, and scrapes its own
# /metrics and /healthz — failing loudly if the exposition is empty.
smoke-telemetry:
	$(GO) run ./examples/telemetry

check: build fmt-check vet test fuzz-check smoke-telemetry

# The repo benchmark declared in BENCHMARK.json: perfbench/run.sh on
# each of its workloads, with the per-layer (traced) pass. PERF_SECONDS
# shortens a run for a quick look. Minutes, not part of `check`.
PERF_SECONDS ?= 50
perf:
	@for w in fedavg-f64 hier-q8-durable; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds $(PERF_SECONDS) --trace 1 || exit 1; \
	done

# Privacy-ladder benchmark: plain vs k-regular masked (auto degree,
# the default) vs legacy full-pairwise vs enclave aggregation at
# 64/256/1024 clients. Three iterations per cell: single-shot fleet
# rounds swing ±20% on a busy host, which is noise the masked/plain
# ratio cannot absorb. The legacy complete graph is O(cohort² · model)
# in mask expansion — that baseline keeps the raised timeout (its
# 1024-client cell is skipped in-run; EXPERIMENTS.md records it).
bench-secagg:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkSecAggRound' -benchtime=3x -benchmem -timeout 60m . > bench/secagg.txt; \
	status=$$?; cat bench/secagg.txt; exit $$status

# Hierarchical fan-in benchmark: flat server vs sharded root over
# protocol stubs at 4096/16384 simulated clients. The flat 16384-client
# baseline alone runs for minutes — that asymmetry is the result.
bench-hier:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkHierRound' -benchtime=1x -benchmem -timeout 60m . > bench/hier.txt; \
	status=$$?; cat bench/hier.txt; exit $$status

# Async buffered-federation benchmark: lockstep-deterministic fleets at
# 64/256 clients, 8 buffered applications each. The async soak and
# edge-case tests themselves run under the race detector via `make
# test` (part of `check`).
bench-async:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkAsyncRound' -benchtime=1x -benchmem -timeout 60m . > bench/async.txt; \
	status=$$?; cat bench/async.txt; exit $$status

# Telemetry-overhead benchmark: the same stub-client round with
# observability disabled (nil instruments, must cost zero extra
# allocations) and enabled (registry + span sink), plus the merged
# path (BenchmarkObsRoundMerged — a root folding 16 shard snapshot
# deltas per round). The reference pair lives in EXPERIMENTS.md.
bench-obs:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkObsRound' -benchtime=5x -benchmem . > bench/obs.txt; \
	status=$$?; cat bench/obs.txt; exit $$status

# Crash-recovery benchmark: journal replay (time-to-resume) vs the
# per-device re-attestation a journal-less restart pays, at 256/1024
# clients.
bench-recover:
	@mkdir -p bench
	$(GO) test -run xxx -bench 'BenchmarkRecover' -benchtime=20x -benchmem . > bench/recover.txt; \
	status=$$?; cat bench/recover.txt; exit $$status

# CI benchmark smoke: run every benchmark exactly once with the heavy
# cases gated behind -short, so bench code can neither rot uncompiled
# nor unrun.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x -timeout 20m ./...
