# Development checks.  `make check` is the tier-1 gate; `make race`
# runs the race detector over the concurrent packages; `make bench`
# records the serial-vs-parallel TableIV wall time; `make bench-json`
# emits the machine-readable benchmark report; `make fuzz-smoke` gives
# each parser fuzzer and the job-spec fuzzer a 30 s budget; `make profile` captures CPU and
# heap profiles of the Table IV pipeline; `make serve-smoke` boots the
# dmopt-serve daemon, runs one job through it and scrapes /metrics;
# `make wafer-smoke` runs a tiny consensus wafer end-to-end and proves
# serial-vs-parallel bit-equality.

GO ?= go

.PHONY: check vet build test race bench bench-json fuzz-smoke profile serve-smoke wafer-smoke all

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
# benchmarks, the supernodal numeric factorization and the multi-RHS
# supernodal solve sweep.  The tables run covers Table IV plus the
# actuator ablation (Table X), so the report times the joint dose+bias
# solves alongside the dose-only pipeline.
bench-json:
	$(GO) test ./internal/core/ -run '^$$' -bench 'CutPoolSolve|TauNewton|WaferSolve' -benchtime 3x
	$(GO) test ./internal/qp/ -run '^$$' -bench 'LDLTFactor|SupernodalSolve' -benchtime 20x
	$(GO) build -o tables.bin ./cmd/tables
	./tables.bin -scale 0.15 -k 2000 -which iv,x -bench-json BENCH_pr10.json
	rm -f tables.bin

# Tiny wafer end-to-end: the 12-field consensus smoke plus the
# worker/permutation bit-identity proof (serial vs parallel dispatch).
wafer-smoke:
	$(GO) test ./internal/core/ -run 'TestWaferSmoke|TestWaferWorkerBitIdentity' -count=1 -v

# End-to-end service smoke: boot dmopt-serve, run one scale-0.15 job
# through the synchronous endpoint, require a 200 and a well-formed
# /metrics report, then shut the daemon down.
serve-smoke:
	$(GO) build -o dmopt-serve.bin ./cmd/dmopt-serve
	./scripts/serve_smoke.sh ./dmopt-serve.bin
	rm -f dmopt-serve.bin

# 30-second CI smoke of each native fuzz target (corpus + new inputs).
fuzz-smoke:
	$(GO) test ./internal/netlist/ -fuzz FuzzParseNetlist -fuzztime 30s -run ^$$
	$(GO) test ./internal/liberty/ -fuzz FuzzParseLiberty -fuzztime 30s -run ^$$
	$(GO) test ./internal/api/ -fuzz FuzzJobSpec -fuzztime 30s -run ^$$

# Profile the dominant pipeline (Table IV at bench scale); inspect with
# `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) run ./cmd/tables -which iv -scale 0.06 -k 1000 -workers 1 \
		-cpuprofile cpu.prof -memprofile mem.prof
	$(GO) tool pprof -top -nodecount=15 cpu.prof
