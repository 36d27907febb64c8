#!/bin/sh
# Tier-1 verification gate (see ROADMAP.md). Every PR must leave this green.
#
#   scripts/verify.sh          # full gate
#   RACE=0 scripts/verify.sh   # skip the race pass (slow machines)
#   FUZZ=0 scripts/verify.sh   # skip the fuzz smokes
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

# The rewriter's freeze net, run by name so that a filtered or cached
# `go test` cannot skip it: image, listing, report and counters of every
# corpus case at both efforts against testdata/freeze.golden, the same again
# with every known-world hash forced to collide, and the two-base layout
# check. Regenerating the golden must reproduce the committed file byte for
# byte — a rewriter whose output moved fails here, not at review.
echo "== brew freeze net (committed goldens, -update leaves no diff)"
go test -count=1 -run 'TestFreezeNet$|TestFreezeNetUnderCollisions|TestLayoutTwoBases' ./internal/brew/
GOLDEN=internal/brew/testdata/freeze.golden
GOLDEN_KEPT="$(mktemp)"
cp "$GOLDEN" "$GOLDEN_KEPT"
go test -count=1 -run 'TestFreezeNet$' ./internal/brew/ -update
if ! cmp -s "$GOLDEN" "$GOLDEN_KEPT"; then
    cp "$GOLDEN_KEPT" "$GOLDEN"
    rm -f "$GOLDEN_KEPT"
    echo "verify: FAIL — the rewriter no longer produces $GOLDEN" >&2
    exit 1
fi
rm -f "$GOLDEN_KEPT"

# The benchmark is a module of its own (bench/go.mod), so the line above
# does not descend into it.
echo "== go -C bench test ./..."
go -C bench test ./...

if [ "${RACE:-1}" = 1 ]; then
    # The emulator's decoded-code tables change under the JIT lock while
    # installs and stub patches run concurrently; mem and cache ride along
    # (small, and everything above them leans on them — mem's suite has the
    # eight readers probing inside and outside the committed windows).
    echo "== go test -race (short budget: vm, mem, cache)"
    go test -race -short ./internal/vm/ ./internal/mem/ ./internal/cache/
    # Short-budget race pass over the packages with real concurrency:
    # RewriteBatch workers, eight concurrent Do on one machine
    # (TestConcurrentDo), the experiment driver, the oracle's window
    # bookkeeping, and the lock-free telemetry registry (full package: it is
    # small and heavily atomic).
    echo "== go test -race (short budget: brew, oracle, telemetry)"
    go test -race -short -run 'TestRewriteBatch|TestConcurrentDo|TestGenerated|TestOracle|TestCompareMemory|TestRollback' \
        ./internal/brew/ ./internal/oracle/
    go test -race ./internal/telemetry/
    # The specialization manager and fault injector are concurrency-bearing
    # by design (watchpoint handlers, eviction racing respecialization);
    # run their full suites under the race detector (-short caps the chaos
    # test at 150 injected faults).
    echo "== go test -race (short budget: specmgr, faultinject)"
    go test -race -short ./internal/specmgr/ ./internal/faultinject/
    # The specialization service is concurrency-first (worker pool,
    # singleflight coalescing, sharded cache): full suite under -race,
    # including the 64-goroutine exactly-one-trace test, the probe-window
    # re-check behind it (TestSubmitRecheckClosesProbeWindow), service chaos,
    # and the tier-promotion suite (hot-swap torn-address readers,
    # per-effort coalescing keys, quick-vs-full cache isolation).
    echo "== go test -race (short budget: brewsvc)"
    go test -race -short ./internal/brewsvc/
    # Lock-free serve path: the counted-mutex build proves warm cache hits
    # take zero service locks, with the sharding/admission suite riding
    # along under the same tag.
    echo "== go test -race (brewsvc, counted mutex)"
    go test -race -short -tags brewsvc_lockstat \
        -run 'TestWarmPathZeroLocks|TestShardRouting|TestCrossShardIsolation|TestSubmitBatch|TestAdmission' \
        ./internal/brewsvc/
    # The observability layer is lock-free by construction (ring-buffer
    # flight recorder, atomic span gating): full suite under -race,
    # including the concurrent ring-wrap writers and the disabled-path
    # zero-allocation tests.
    echo "== go test -race (obs)"
    go test -race ./internal/obs/
    # The persistent rewrite store runs a write-behind remote goroutine
    # with retry/backoff racing Close/Drain: full suite under -race,
    # including the truncate-at-every-offset and bit-flip-every-byte
    # crash-safety tables, the injected-write-fault quarantine tests, the
    # damaged-record-never-relocated table and the corpus relocation round
    # trip (-short caps the brewsvc persist chaos at 120 injected faults).
    echo "== go test -race (spstore)"
    go test -race ./internal/spstore/
fi

# API-migration lint: commands and examples must use the unified brew.Do /
# service entry points, not the deprecated wrappers.
echo "== deprecated rewrite API lint (cmd/, examples/)"
if grep -rnE '\.(Rewrite|RewriteBatch|RewriteGuarded|RewriteOrDegrade)\(' cmd/ examples/; then
    echo "verify: FAIL — cmd/ or examples/ call deprecated rewrite entry points (use Do)" >&2
    exit 1
fi
# First-party code opens the service with brewsvc.Open(m, opts...); the
# deprecated brewsvc.New(m, Options{...}) shim exists only for external
# callers mid-migration.
echo "== deprecated brewsvc.New lint (cmd/, examples/, internal/exp)"
if grep -rnE 'brewsvc\.New\(' cmd/ examples/ internal/exp; then
    echo "verify: FAIL — first-party code calls deprecated brewsvc.New (use brewsvc.Open)" >&2
    exit 1
fi

# Fallback-path smoke: fault-injected rewrites must degrade to the
# original function and stay observably equivalent under the oracle.
echo "== brew-verify -faults smoke"
go run ./cmd/brew-verify -seeds 0 -stencil=false -faults 60 -q

# Relocation smoke: every persisted rewrite is adopted twice, where it was
# captured and — behind a decoy in the JIT buffer — somewhere else, and the
# moved body must equal a fresh rewrite made at that address and behave
# like the original. brew-verify exits 1 on any divergence and when an
# adoption it meant to move did not (zero moved adoptions included).
echo "== brew-verify -persist smoke (adoptions moved)"
go run ./cmd/brew-verify -seeds 20 -persist -q

# brew-top smoke: the self-contained demo runs a coalesced burst plus a
# tier promotion and renders the dashboard through the HTTP introspection
# listener; the output must carry the stage-quantile table.
echo "== brew-top -demo smoke"
go run ./cmd/brew-top -demo | grep -q 'rewrite' || {
    echo "verify: FAIL — brew-top demo dashboard missing the stage table" >&2
    exit 1
}

# brew-bench smoke: tiny grid, JSON output must parse. The service family
# also enforces the E5 acceptance bar (64-caller burst = exactly 1 trace);
# the tiered family enforces the E6 bars (tier-0 rewrite cost >= 3x below
# tier-1, post-promotion steady state == tier-1 direct); the polymorph
# family enforces the E7 bar (single-variant per-caller cost >= 2x the
# variant table's, generic fallthrough correct); the obs family enforces
# the E8 bars (enabled tracing within 2% wall overhead on the E1c steady
# state, identical steady-state cycles, nonempty reconstructed lifecycle
# trace, traced submit path capped at 3x); the persist family enforces
# the E9 bars (warm boot traces >= 5x below cold, revalidation <= 5% of
# the warm wall, zero persist-oracle divergences). checkjson re-checks
# the E6/E7/E8/E9 bars from the JSON.
echo "== brew-bench -json smoke (tiny grid)"
BENCH_JSON="$(mktemp)"
trap 'rm -f "$BENCH_JSON"' EXIT
go run ./cmd/brew-bench -only stencil,service,tiered,polymorph,obs,persist -xs 16 -ys 12 -iters 1 -json "$BENCH_JSON" > /dev/null
go run ./scripts/checkjson "$BENCH_JSON"

# brew-load smoke: the sharded-service load harness with the counted
# service mutex armed. The harness self-asserts its invariants (clean
# requests never degrade, priority SLOs honored, warm hits lock-free) and
# checkjson re-enforces the E10 bars from the JSON: modeled 8-shard
# speedup >= 4x, warm p999 <= 25ms, zero warm-path lock acquisitions,
# zero high-priority sheds. cmd/brew-load's default is the full
# 1M-request run; verify drives a 20k-request smoke of the same phases.
echo "== brew-load smoke (counted mutex, 8 shards)"
LOAD_JSON="$(mktemp)"
trap 'rm -f "$BENCH_JSON" "$LOAD_JSON"' EXIT
go run -tags brewsvc_lockstat ./cmd/brew-load -requests 20000 -shards 8 -json "$LOAD_JSON" -quiet
go run ./scripts/checkjson "$LOAD_JSON"

# brew-cache over the store a persist/reload oracle run leaves behind:
# the store must list records, and fsck must find nothing corrupt (exit 0).
echo "== brew-verify -persist + brew-cache smoke"
PERSIST_DIR="$(mktemp -d)"
trap 'rm -f "$BENCH_JSON" "$LOAD_JSON"; rm -rf "$PERSIST_DIR"' EXIT
go run ./cmd/brew-verify -seeds 3 -persist -store "$PERSIST_DIR" -q
go run ./cmd/brew-cache -store "$PERSIST_DIR" ls | grep -q 'records, generation' || {
    echo "verify: FAIL — brew-cache ls shows no records from the persist smoke" >&2
    exit 1
}
go run ./cmd/brew-cache -store "$PERSIST_DIR" fsck > /dev/null

if [ "${FUZZ:-1}" = 1 ]; then
    # Differential-execution oracle smoke: rewritten code must be observably
    # equivalent to the original (returns, non-stack stores, memory, faults).
    echo "== FuzzDifferential smoke (10s)"
    go test -fuzz=FuzzDifferential -fuzztime=10s -run '^$' ./internal/brew/
    # Store record decoder: never panics, and a clean decode re-encodes to
    # the same bytes. Minimizing every new interesting input would spend the
    # budget on a handful of them, so minimization is capped.
    echo "== FuzzDecodeRecord smoke (5s)"
    go test -fuzz=FuzzDecodeRecord -fuzztime=5s -fuzzminimizetime=200x -run '^$' ./internal/spstore/
fi

echo "verify: OK"
