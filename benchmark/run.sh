#!/usr/bin/env bash
# Builds the benchmark from source (offline, against the vendored shims) and
# runs it; every argument goes to the harness. See README.md.
set -euo pipefail
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
