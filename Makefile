GO ?= go

.PHONY: all build test check check-bench-refs fuzz bench bench-diff microbench artifacts

all: build

build:
	$(GO) build ./...

# test is the tier-1 lane; -shuffle=on randomizes test and example order
# within each package so order dependencies cannot hide (go test prints the
# seed as `-test.shuffle N` on failure — rerun with that value to reproduce).
test:
	$(GO) test -shuffle=on ./...

# check is the PR gate: full build, vet, and the concurrency-sensitive
# packages (the engine, the parallel experiment runner, the metamorphic
# harness, the TLB whose released arenas cross goroutines through a pool,
# the shadow lock tables, and the L0 hypervisor whose per-VM frame
# allocators a bound sandbox touches without a gate) under the race
# detector. -short selects the
# reduced experiment grids and fuzz corpus so the race-instrumented pass
# stays within CI budgets even at -count=2; the full grids run race-free via
# `make test`. It first fails when gofmt would change any tracked Go file
# (git ls-files, so untracked build trees such as .bench_build/ are skipped).
check:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race -short ./internal/vclock/... ./internal/experiments/... ./internal/check/... ./internal/tlb/... ./internal/core/... ./internal/hv/...

# check-bench-refs fails when a bench artifact this Makefile or the CI
# workflow reads is missing from the tree (files they only write, after
# -out, do not count). A missing baseline must fail loudly, not turn a gate
# into a no-op.
check-bench-refs:
	@missing=0; \
	for f in $$(sed -e 's/#.*//' -e 's/-out [^ ]*//g' Makefile .github/workflows/ci.yml | grep -o 'BENCH_[A-Za-z0-9_]*\.json' | sort -u); do \
		if [ -f "$$f" ]; then echo "ok      $$f"; else echo "MISSING $$f"; missing=1; fi; \
	done; \
	exit $$missing

# fuzz sweeps the full metamorphic corpus (10 variants per seed, including
# the lifecycle fast lane disabled and dirty-page logging armed) plus the
# backend and bound-sandbox differential grids and the bound fleets' gate
# count without the race detector's slowdown.
fuzz:
	$(GO) test -count=1 -run 'TestMetamorphicCorpus|TestSoloBypassDifferential|TestLifecycleFastLaneDifferential|TestDirtyLogVariantDifferential|TestBoundFleetDifferential|TestBoundBareMetalGatesIgnorePages' ./internal/check/
	$(GO) test -count=1 -run 'TestRangedAccessEquivalence|TestForkTeardownEquivalence|TestDirtyLog' ./internal/backend/

# bench writes a fresh report (benchreport's default file name; it is not
# committed): the TouchRange, ColdFault, ProcessLifecycle,
# MultiVCPUContention, and DirtyScan grids plus the PreCopy experiment
# benchmark across all five MMU backends, and the serial default-grid wall
# clock (compared against the newest committed artifact's baseline).
bench:
	$(GO) run ./cmd/benchreport -out BENCH_pr10.json

# bench-diff compares the two newest committed bench artifacts cell by cell
# and fails on regressions beyond the default threshold; it refuses to
# compare artifacts measured at different benchtimes or host parallelism.
# To compare a fresh `make bench` report, diff BENCH_pr9.json against it.
bench-diff:
	$(GO) run ./cmd/benchreport -diff BENCH_pr8.json BENCH_pr9.json

# microbench runs the low-level hot-path benchmarks of the simulator core.
microbench:
	$(GO) test -bench . -benchmem ./internal/vclock/ ./internal/tlb/ ./internal/pagetable/

# artifacts regenerates the captured default-scale experiment output.
artifacts:
	$(GO) run ./cmd/pvmbench -exp all -scale default > results_default.txt
