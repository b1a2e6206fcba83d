#!/bin/sh
# Pre-commit gate, equivalent to `make check` for environments without make:
# vet, build, race-enabled tests, and the deterministic fault-injection
# smoke campaign (see docs/robustness.md).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go vet + go test -race (core, cell, harness, faultinject, server, coord) =="
# Explicit gate for the concurrency-heavy packages: the sweep engine, the
# parallel fault campaign, the core machinery their workers reuse, the
# coalescing result cache (internal/cell) both share, the HTTP simulation
# server (cache/drain under concurrent load), and the distributed sweep
# coordinator (hedging/breakers/store).
go vet ./internal/core/ ./internal/cell/ ./internal/harness/ ./internal/faultinject/ ./internal/server/ ./internal/coord/
go test -race ./internal/core/ ./internal/cell/ ./internal/harness/ ./internal/faultinject/ ./internal/server/ ./internal/coord/

echo "== go test -race (full suite) =="
go test -race ./...

echo "== fault-injection smoke campaign =="
go run ./cmd/vpir-faults -seed 1 -campaign smoke

echo "== service-layer chaos drill (kill/revive, store restart, corruption) =="
# Workers behind fault-injecting proxies, one killed and revived mid-sweep;
# the merged distributed output must stay byte-identical to a serial run,
# and the durable store must survive restart and quarantine corruption.
go test -race -run 'TestChaos|TestDurableStore|TestAllBackendsDown|TestHedgedStragglers' -count 1 ./internal/coord/

echo "== golden-result corpus =="
# Every benchmark x {base, VP, IR} against testdata/golden; a core change
# that shifts paper-relevant numbers fails here. Deliberate changes:
# go test -run TestGoldenCorpus -update . (then review the JSON diff).
go test -run 'TestGoldenCorpus' .

echo "== skip-invariance smoke (golden corpus under VPIR_NO_SKIP=1) =="
# The quiescence-aware cycle skipper must be invisible: the same corpus,
# forced through the legacy cycle-by-cycle loop, must reproduce the exact
# same numbers (see docs/performance.md).
VPIR_NO_SKIP=1 go test -run 'TestGoldenCorpus' -count 1 .

echo "== fuzz smoke (assembler + end-to-end RunSource) =="
go test -run '^$' -fuzz FuzzAssemble -fuzztime 10s ./internal/asm
go test -run '^$' -fuzz FuzzRunSource -fuzztime 10s .

echo "== ui smoke (embedded dashboard + /v1/trace against a real binary) =="
# Boot a real vpir-server on an ephemeral port, fetch the embedded UI,
# drive /v1/trace twice (shape-validated, byte-identical cache HIT on the
# repeat), then SIGTERM for a clean drain.
uitmp="$(mktemp -d)"
go build -o "$uitmp/vpir-server" ./cmd/vpir-server
if ! go run ./scripts/uismoke -bin "$uitmp/vpir-server"; then
    rm -rf "$uitmp"
    exit 1
fi
rm -rf "$uitmp"

echo "== sampled-simulation smoke (bit-identity + stitched-IPC tolerance) =="
# On two kernels: a 100%-coverage sampling plan must reproduce the
# non-sampled run bit for bit, and a sparse plan's stitched IPC must land
# within tolerance of the full-detail IPC (see docs/sampling.md).
go run ./scripts/samplesmoke

# Opt-in profiling pass: VPIR_PROFILE=1 scripts/check.sh additionally
# captures CPU and allocation profiles of the three pipeline variants into
# profiles/ (same as `make profile`; see docs/performance.md).
if [ "${VPIR_PROFILE:-0}" = "1" ]; then
    echo "== profiles (VPIR_PROFILE=1) =="
    mkdir -p profiles
    go test -run '^$' -bench 'BenchmarkSimBase$' -benchtime 5x \
        -cpuprofile profiles/base.cpu.pprof -memprofile profiles/base.mem.pprof .
    go test -run '^$' -bench 'BenchmarkSimIR$' -benchtime 5x \
        -cpuprofile profiles/ir.cpu.pprof -memprofile profiles/ir.mem.pprof .
    go test -run '^$' -bench 'BenchmarkSimVP$' -benchtime 5x \
        -cpuprofile profiles/vp.cpu.pprof -memprofile profiles/vp.mem.pprof .
    echo "profiles written to profiles/"
fi

echo "check: all gates passed"
