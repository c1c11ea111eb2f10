#!/usr/bin/env bash
# The one command. Builds the benchmark package (release, the repo's
# .cargo/config.toml flags, no profile overrides) and runs it.
#
#   bash benchmark/run.sh                       a full set: every workload, every metric
#   bash benchmark/run.sh --aa                  two alternated sets of the same binary
#   bash benchmark/run.sh --smoke               one short round, <= 15 s
#   bash benchmark/run.sh --workload wire_fec --seed 7 --seconds 10 --trace 1
#
# Run from the repo root so cargo picks up .cargo/config.toml.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/rekeybench" "$@"
