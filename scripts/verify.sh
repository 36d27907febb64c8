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

# The -run patterns of the passes below. Each alternative must select at
# least one test: a renamed test must fail here, not drop out of its pass.
FREEZE_RUN='TestFreezeNet$|TestFreezeNetUnderCollisions|TestLayoutTwoBases'
BREW_RACE_RUN='TestRewriteBatch|TestConcurrentDo|TestGenerated|TestOracle|TestCompareMemory|TestRollback|TestFingerprintNeverStale'
LOCKSTAT_RUN='TestWarmPathZeroLocks|TestShardRouting|TestCrossShardIsolation|TestSubmitBatch|TestAdmission'
WARM_RUN='TestFingerprintFreeze|TestKeyFreeze|TestWarmHitAllocs|TestFingerprintNeverStale'

# require_tests PATTERN [go test flags] PACKAGE...: fail unless every
# |-separated alternative of PATTERN lists at least one test.
require_tests() {
    pattern=$1
    shift
    rest=$pattern
    while [ -n "$rest" ]; do
        alt=${rest%%|*}
        case $rest in *"|"*) rest=${rest#*|} ;; *) rest= ;; esac
        if ! go test -list "$alt" "$@" | grep -q '^Test'; then
            echo "verify: FAIL — -run alternative '$alt' selects no test in $*" >&2
            exit 1
        fi
    done
}

echo "== -run patterns select tests"
require_tests "$FREEZE_RUN" ./internal/brew/
require_tests "$BREW_RACE_RUN" ./internal/brew/ ./internal/oracle/
require_tests "$LOCKSTAT_RUN" -tags brewsvc_lockstat ./internal/brewsvc/
require_tests "$WARM_RUN" ./internal/brew/ ./internal/brewsvc/

echo "== go test ./..."
go test ./...

# The rewriter's freeze net, run by name so that a filtered or cached
# `go test` cannot skip it: image, listing, report and counters of every
# corpus case at both efforts against testdata/freeze.golden, the same again
# with every known-world hash forced to collide, and the two-base layout
# check. Regenerating the golden must reproduce the committed file byte for
# byte — a rewriter whose output moved fails here, not at review.
echo "== brew freeze net (committed goldens, -update leaves no diff)"
go test -count=1 -run "$FREEZE_RUN" ./internal/brew/
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

# The warm serve path's freeze net and allocation budget, by name: the
# configuration fingerprints and the service keys (cache key, entry key,
# shard) over seeded populations against their committed goldens — a moved
# value re-routes shards, cache evictions and store keys — the memoized
# Fingerprint held to a freshly rebuilt configuration after every mutation
# (TestFingerprintNeverStale), and the zero-allocation Do hit
# (TestWarmHitAllocs).
echo "== warm-path key freeze net and allocation budget"
go test -count=1 -run "$WARM_RUN" ./internal/brew/ ./internal/brewsvc/

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
    # goroutines calling Do side by side (TestRewriteBatch*), eight
    # concurrent Do of one request on one machine
    # (TestConcurrentDo), goroutines fingerprinting one shared Config
    # while others clone and mutate it (TestFingerprintNeverStale), the
    # oracle's window bookkeeping, and the
    # lock-free telemetry registry (full package: it is small and heavily
    # atomic).
    echo "== go test -race (short budget: brew, oracle, telemetry)"
    go test -race -short -run "$BREW_RACE_RUN" ./internal/brew/ ./internal/oracle/
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
    # persist chaos (-short caps it at 120 injected store faults) and the
    # tier-promotion suite (hot-swap torn-address readers, per-effort
    # coalescing keys, quick-vs-full cache isolation).
    echo "== go test -race (short budget: brewsvc)"
    go test -race -short ./internal/brewsvc/
    # Lock-free serve path: the counted-mutex build is the only place the
    # zero-lock bar is checked — TestWarmPathZeroLocks proves warm cache
    # hits take zero locks, the service's and the specialization
    # manager's, with the sharding/admission suite riding along under the
    # same tag. The manager's mutex is counted too, so its full suite runs
    # on the counted build as well.
    echo "== go test -race (brewsvc, specmgr, counted mutex)"
    go test -race -short -tags brewsvc_lockstat -run "$LOCKSTAT_RUN" ./internal/brewsvc/
    go test -race -short -tags brewsvc_lockstat ./internal/specmgr/
    # The observability layer is lock-free by construction (ring-buffer
    # flight recorder, atomic span gating): full suite under -race,
    # including the concurrent ring-wrap writers and the disabled-path
    # zero-allocation tests.
    echo "== go test -race (obs)"
    go test -race ./internal/obs/
    # The persistent rewrite store is shared by every worker that adopts or
    # persists, and concurrent puts and quarantines contend for the
    # manifest and the retired quarantine files (TestTwoStoresShareRetiredFiles):
    # full suite under -race, including the truncate-at-every-offset and
    # bit-flip-every-byte crash-safety tables, the injected-write-fault
    # quarantine tests, the damaged-record-never-relocated table and the
    # corpus relocation round trip.
    echo "== go test -race (spstore)"
    go test -race ./internal/spstore/
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

# brew-cache over the store a persist/reload oracle run leaves behind:
# the store must list records, and fsck must find nothing corrupt (exit 0).
echo "== brew-verify -persist + brew-cache smoke"
PERSIST_DIR="$(mktemp -d)"
trap 'rm -rf "$PERSIST_DIR"' EXIT
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
