GO ?= go

.PHONY: all build test tier1 tier2 lint race bench bench-experiments paranoia fuzz-smoke daemon-smoke chaos profile-cpu profile-mem clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier 1: the must-stay-green gate (fast, run on every change).
tier1:
	$(GO) build ./... && $(GO) test ./...

# Lint: formatting (gofmt -l exits 0 even with findings, so fail on output)
# plus go vet, on the root module and on perfbench (its own module, which
# ./... never enters). CI runs this as its own step.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

# Tier 2: static analysis plus the full suite under the race detector.
# Includes TestEngineDeterminismAcrossWorkers, which drives real simulations
# through the 8-worker pool and compares rows against a sequential run.
tier2:
	$(GO) vet ./... && $(GO) test -race -timeout 30m ./...

race: tier2

# Microbenchmark of the pipeline hot path; watch the allocs/kinstr metric.
bench:
	$(GO) test ./internal/pipeline/ -bench CorePerCycle -benchtime 2s -run XXX

# Figure/table benchmarks at reduced budgets (see bench_test.go).
bench-experiments:
	$(GO) test -bench 'Fig10|Fig5' -benchtime=1x -run XXX

# Paranoia suite: the full workload × mode matrix with the per-cycle
# invariant checker armed (see internal/pipeline/paranoia.go), asserting
# results stay bit-identical to unchecked runs. Slow; CI runs the trimmed
# default (plain TestParanoiaSuite) inside tier1 and this full form in the
# robustness job.
paranoia:
	$(GO) test ./tea/ -run TestParanoiaSuite -paranoia-full -count=1 -timeout 30m

# Fuzz smoke: a short budget on each tea/spec fuzz target, enough to catch
# parser/patch regressions that panic on malformed input.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./tea/spec -run '^$$' -fuzz FuzzValidate -fuzztime $(FUZZTIME)
	$(GO) test ./tea/spec -run '^$$' -fuzz FuzzSetPatch -fuzztime $(FUZZTIME)

# Daemon smoke: boot teasrvd, POST a tiny Fig 8 matrix, and assert the
# served report is byte-identical to the direct library run, a re-POST is
# served entirely from the result store, and SIGTERM drains cleanly
# (see scripts/daemon_smoke.sh; CI runs this as its own job).
daemon-smoke:
	sh scripts/daemon_smoke.sh

# Chaos smoke: run a small matrix on a real multi-process worker fabric with
# faultinject armed (worker SIGKILL mid-shard, torn journal write, full pool
# collapse) and assert the merged report stays byte-identical to a clean
# single-process run (see scripts/chaos_smoke.sh; CI runs this in the
# robustness job).
chaos:
	sh scripts/chaos_smoke.sh

# Profiling workflow (see README "Profiling and parallelism"): run an
# experiment under the profiler, then inspect with `go tool pprof`.
profile-cpu:
	$(GO) run ./cmd/teaexp -exp fig5 -n 200000 -cpuprofile cpu.pprof
	@echo "inspect with: go tool pprof -top cpu.pprof"

profile-mem:
	$(GO) run ./cmd/teaexp -exp fig5 -n 200000 -memprofile mem.pprof
	@echo "inspect with: go tool pprof -top -sample_index=alloc_objects mem.pprof"

clean:
	rm -f cpu.pprof mem.pprof
