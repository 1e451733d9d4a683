# Developer entry points. CI runs the same targets (.github/workflows/ci.yml).

GO ?= go

.PHONY: all build test race vet fmt bench bench-compare bench-governed bench-ecc

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The repo's benchmark (BENCHMARK.json): four end-to-end workloads plus
# the per-layer budget, every answer checked against a naive-kernel
# oracle. Writes bench/out/results.json; see bench/README.md.
bench:
	$(GO) run ./bench

# Verdict per metric of the last `make bench` run against the committed
# trajectory.
bench-compare:
	$(GO) run ./bench -compare bench/results/baseline.json bench/out/results.json

# The governed-fleet comparison: serving throughput must hold while
# energy-per-request drops versus the static operating points.
bench-governed:
	$(GO) test -run '^$$' -bench 'BenchmarkGovernedFleet$$' -benchtime 2s .

# The ECC comparison: the SECDED-protected fleet must settle at a
# strictly lower VCCBRAM (vccbram_mV metric) at equal throughput, plus
# the raw frame-scrub pass cost.
bench-ecc:
	$(GO) test -run '^$$' -bench 'BenchmarkScrubOverhead|BenchmarkGovernedFleetECC' -benchtime 2s .
