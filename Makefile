# Development checks.  `make check` is the tier-1 gate; `make race`
# runs the race detector over the concurrent packages; `make bench`
# records the serial-vs-parallel TableIV wall time; `make bench-json`
# emits the machine-readable benchmark report (bench.json, untracked);
# `make fuzz-smoke` gives the job-spec fuzzer a 30 s budget; `make
# profile` captures CPU and heap profiles of the Table IV pipeline;
# `make serve-smoke` boots the dmopt-serve daemon, drives each endpoint
# once and scrapes /metrics; `make wafer-smoke` runs a tiny consensus
# wafer end-to-end, proves serial-vs-parallel bit-equality and that its
# uncoupled stage is the single-field QCP, and solves the Table IX
# wafer on two held-out designs; `make record` regenerates the
# scale-0.15 record file; `make
# traffic-cover` runs every entry point once under coverage, lists
# the functions that traffic never reaches and fails on any of them
# that scripts/traffic_allow.txt does not name.

GO ?= go

.PHONY: check vet build test race bench bench-json fuzz-smoke profile serve-smoke wafer-smoke record traffic-cover all

all: check

check: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...
	$(GO) build ./examples/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=TableIV -benchtime=1x -run=^$$ .

# Schema-versioned benchmark report (git rev, scale, workers, per-stage
# span timings, solver iteration, factorization and gate-eval
# counters).  Built as a binary (not `go run`) so the toolchain stamps
# vcs.revision into the report's git_rev field.  Also runs the full
# ADMM solve of the cut-pool matrix, the τ-Newton bisection and wafer
# benchmarks, the supernodal numeric factorization, the multi-RHS
# supernodal solve sweep, and the time and allocations of serve-mix
# sized jobs (QP, QCP, joint QP) on a prepared artifact.  The tables run
# covers Table IV plus the actuator ablation (Table X), so the report
# times the joint dose+bias solves alongside the dose-only pipeline.
bench-json:
	$(GO) test ./internal/core/ -run '^$$' -bench 'CutPoolSolve|TauNewton|WaferSolve' -benchtime 3x
	$(GO) test ./internal/qp/ -run '^$$' -bench 'LDLTFactor|SupernodalSolve' -benchtime 20x
	$(GO) test ./internal/api/ -run '^$$' -bench 'SmallJob' -benchtime 200x
	$(GO) build -o tables.bin ./cmd/tables
	./tables.bin -scale 0.15 -k 2000 -which iv,x -bench-json bench.json
	rm -f tables.bin

# Tiny wafer end-to-end: the 12-field consensus smoke plus the
# worker/permutation bit-identity proof (serial vs parallel dispatch),
# each uncoupled field bit-equal to an isolated single-field QCP, and
# the Table IX wafer on the two held-out AES-65 seeds whose consensus
# once failed to converge.
wafer-smoke:
	$(GO) test ./internal/core/ -run 'TestWaferSmoke|TestWaferWorkerBitIdentity|TestWaferUncoupledIsSingleFieldQCP|TestWaferHeldOutSeeds' -count=1 -v

# Regenerate the committed scale-0.15 record of every table, Table IX
# and Table X included (a few seconds on 2 vCPUs).
record:
	$(GO) run ./cmd/tables -scale 0.15 -k 2000 -which all,ix,x > results_scale0.15.txt

# End-to-end service smoke: boot dmopt-serve, run a scale-0.15 job and
# a small wafer job through the synchronous endpoint, cancel an
# asynchronous job, list the jobs, send a malformed body (400), require
# a /metrics report with exact job counts (two done, one canceled, one
# rejected), then shut the daemon down.
serve-smoke:
	$(GO) build -o dmopt-serve.bin ./cmd/dmopt-serve
	./scripts/serve_smoke.sh ./dmopt-serve.bin
	rm -f dmopt-serve.bin

# Coverage of the repository's own traffic: every command, example and
# perfbench workload plus the service smoke, built with
# -coverpkg=repro/... and run once.  Writes the functions at 0.0 % to
# zero-coverage.txt (untracked); fails if any entry point fails or if
# a function at 0.0 % is missing from scripts/traffic_allow.txt.
traffic-cover:
	./scripts/traffic_cover.sh zero-coverage.txt

# 30-second CI smoke of the job-spec fuzz target (corpus + new inputs).
fuzz-smoke:
	$(GO) test ./internal/api/ -fuzz FuzzJobSpec -fuzztime 30s -run ^$$

# Profile the dominant pipeline (Table IV at bench scale); inspect with
# `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) run ./cmd/tables -which iv -scale 0.06 -k 1000 -workers 1 \
		-cpuprofile cpu.prof -memprofile mem.prof
	$(GO) tool pprof -top -nodecount=15 cpu.prof
