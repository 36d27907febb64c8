#!/usr/bin/env bash
# Builds the benchmark (its own module, bench/go.mod) into .bench_build/ at
# the checkout root and runs it from bench/, so out/ lands in bench/out/.
# All arguments go to the program; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin="$(dirname "$here")/.bench_build/brewbench"
cd "$here"
go build -o "$bin" .
exec "$bin" "$@"
