#!/usr/bin/env bash
# The full local gate: formatting, the project lints (clippy on both feature
# legs, plus the check that every crate is wired to them), rustdoc with
# warnings denied, the test suite with the deep invariant sanitizer live
# (bench's figure_identity, four figures at one and four grid workers, runs
# there), the gf256/rse suites again in an optimised build (the vectorized
# kernel), the dynamic no-alloc harness (the obs event log's armed and
# disarmed paths included), the statistical engine-agreement gate, the
# receiver stack against its one reference receiver and the session's
# reference (optimised builds), the check that every repository path the docs cite
# exists, one full run of each of the three tracked BENCH reports compared
# byte for byte with the committed file (a report holds exact facts, so
# `cmp` is the whole sentinel; BENCH_figures.json a second time on one grid
# worker), and the obs build. Speed is not gated here: that is
# BENCHMARK.json's alternated parent/change pairs.
# Everything runs offline against the vendored in-tree dependency shims.
# Each stage's wall time, the Rust lines and the #[expect] reasons citing
# each ROADMAP item are reported in a summary at the end.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE_NAMES=()
STAGE_SECONDS=()
CURRENT_STAGE=""
CURRENT_START=0

stage() {
    stage_end
    CURRENT_STAGE="$1"
    CURRENT_START=$SECONDS
    echo "==> $1"
}

stage_end() {
    if [ -n "$CURRENT_STAGE" ]; then
        STAGE_NAMES+=("$CURRENT_STAGE")
        STAGE_SECONDS+=("$((SECONDS - CURRENT_START))")
        CURRENT_STAGE=""
    fi
}

stage "cargo fmt --check"
cargo fmt --check

stage "cargo clippy --workspace --all-targets -- -D warnings"
# The project rules are lint levels: [workspace.lints] in the root
# Cargo.toml, clippy.toml, and the attribute lines checked below.
cargo clippy --workspace --all-targets -- -D warnings
# Again with the feature-gated code compiled in (sanitize.rs, live obs).
cargo clippy --workspace --all-targets --features sanitize,obs -- -D warnings

stage "lint wiring: the table, its heirs, the per-crate attribute lines"
# clippy proves a lint fires where it is switched on; this proves it is
# switched on everywhere it was: no table line dropped, every member but
# xcheck-rt (its GlobalAlloc impl needs `unsafe`) inheriting the table, the
# nine panic-free crates and gf256's three arithmetic files still carrying
# their attribute.
unwired() {
    echo "ci.sh: lint wiring: $1" >&2
    exit 1
}
for lint in unsafe_code missing_docs todo unimplemented iter_over_hash_type \
    allow_attributes allow_attributes_without_reason; do
    grep -q "^$lint = \"" Cargo.toml || unwired "[workspace.lints] lacks $lint"
done
for manifest in Cargo.toml crates/*/Cargo.toml; do
    [ "$manifest" = crates/xcheck-rt/Cargo.toml ] && continue
    grep -A1 -x '\[lints\]' "$manifest" | grep -qx 'workspace = true' ||
        unwired "$manifest lacks [lints] workspace = true"
done
for crate in wirecrypto rekeymsg rse netsim grouprekey keytree rekeyproto obs gf256; do
    grep -q 'clippy::unreachable' "crates/$crate/src/lib.rs" ||
        unwired "crates/$crate/src/lib.rs lacks the panic-free attribute"
done
for file in field lagrange bulk; do
    grep -q '^#!\[cfg_attr(not(test), warn(clippy::cast_possible_truncation))\]' \
        "crates/gf256/src/$file.rs" || unwired "gf256/src/$file.rs lacks the cast attribute"
done

stage "doc paths (every repository path DESIGN, PROTOCOL and README cite exists)"
# tests/doc_paths.rs reads the backticked spans of the three docs; a span
# that names a repository path (from the root, or a file under a crate)
# must exist, and a planted dead one is reported.
cargo test -q --test doc_paths

stage "cargo doc --workspace --no-deps (rustdoc warnings denied)"
# Intra-doc links are checked here, so a deleted or renamed item cannot
# leave prose pointing at nothing.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

stage "cargo test --workspace --features sanitize"
cargo test --workspace -q --features sanitize

stage "cargo test --release -p gf256 -p rse (the vectorized FEC kernel)"
# mul_acc_slice_wide is only vectorized in an optimised build, so the debug
# suite above tests its source but not the machine code the coder and the
# benchmark run; its exhaustive and property oracles run again on that here.
cargo test --release -q -p gf256 -p rse

stage "dynamic no-alloc harness (xcheck-rt counting allocator)"
cargo test -q -p xcheck-rt
cargo test -q -p keytree --test no_alloc_marks
cargo test -q -p rekeymsg --test no_alloc_marks
# Encode is pinned at zero; decode_missing at 3 whatever is missing (the
# chosen shares and the context) and one rebuilt row, or a header's prefix
# of one, at zero — with spans on, too.
cargo test -q -p rse --test no_alloc_marks
cargo test -q -p rse --features obs --test no_alloc_marks
# The per-link queries (source_delivers, link_delivers), a listener's walk in spans
# (memo hits and refreshes), multicast_to_into and unicast: zero.
cargo test -q -p netsim --test no_alloc_marks
# The serving delivery and 990 deliveries of ruled-out blocks are pinned at
# zero (no reference held either), and so is asking is_own of each; 1000
# kept ones at a constant (the flat share store's and the tracker's growth
# after one sizing each); a FEC recovery at the decode context of each block
# tried plus the one frame the serving packet is rebuilt into.
cargo test -q -p rekeyproto --test alloc_budget
# The count-model loop on a warm TransportScratch, both models' next_read and
# reads_now (the bound, the own check of every frame, and taking the own
# one), UserAgent::apply_enc
# off the kept frame and apply_usr off a USR packet: zero; apply_enc for a
# member a split moved one
# level down: at most one (its path grows). The server side: wirecrypto's
# eight-lane seal and keystream kernels, and a warm IntervalCollector
# admitting a leave and a join (the request payload is a stack array): zero;
# begin_message + start: nothing per ENC packet (each goes out on the body
# UKA wrote), only per block and per parity body.
cargo test -q -p grouprekey --test no_alloc_marks
# The collector's integer-hashed tables against a BTreeMap reference over
# random request streams (duplicates, leave after join, stale and future
# intervals, bad tags): same verdicts, same pending counts, same batches.
cargo test -q -p grouprekey --lib collector_reference
# The obs entry points and its event log, both feature legs: compiled out
# and disarmed they allocate nothing (no_alloc_off, no_alloc_marks); armed,
# the log's steady state allocates nothing either (no_alloc_marks), and
# trace_log pins what the log keeps, drops and hands out as tracks.
cargo test -q -p obs --test no_alloc_off
cargo test -q -p obs --features enabled --test no_alloc_off
cargo test -q -p obs --test no_alloc_marks
cargo test -q -p obs --features enabled --test no_alloc_marks
cargo test -q -p obs --features enabled --test trace_log

stage "engine agreement (statistical gate over seeds, --release)"
# What stands in for digest identity when a change is exact in law but draws
# different random numbers (DESIGN.md "Asking a link"): two seed sets of this
# engine agree, a link with p_high off by 10 % is rejected, and the committed
# table of the last replaced engine agrees with this one. ~900 messages at
# N = 4096, so the three cases are ignored in debug builds and run here.
cargo test --release -q -p bench --test engine_agreement

stage "UKA plan identity (run-aggregated planner vs user-by-user oracle)"
# Bit-identity of the run-aggregated planner against the sanitize-featured
# reference walk: a proptest across random (N, d, churn, layout capacity,
# compaction) including relocation batches and forced splits, plus
# deterministic cases at the server_scale shape, N = 4096 at d = 2 and 8,
# and a two-level user zone.
cargo test -q -p rekeymsg --features sanitize --test plan_identity
# Batch to packets in a release build: random batches of every shape (J < L,
# J = L, J > L with splits, empty, every member leaving; compaction on and
# off) marked and planned by the product path, each outcome held to the
# marking oracle (keytree::sanitize::verify_marking) and each plan to the
# reference plan.
cargo test --release -q -p rekeymsg --features sanitize --test batch_oracles
# The ENC packet written once into its FEC body against the field-by-field
# writer it replaced, a test-only reference: over random headers, entries
# and layouts, emit, the body the encoder reads, Packet::parse and
# EncFrame::new(..).to_packet() all give the reference's bytes.
cargo test -q -p rekeymsg --lib writer_reference

stage "transport delivery order and receiver identity (one reference receiver, --release)"
# The receiver stack has one test-only reference, PROTOCOL.md §5–§9 written
# plainly (grouprekey/src/transport/receiver_reference.rs): rounds delivered
# packet by packet, each delivered frame read at once by a UserSession or a
# SimUser, and agents as key maps unsealing one key at a time. Over churning
# groups (splits, compaction, ENC, USR and unserved members, forged frames
# and outcomes), transport::run then install_lanes, the composition
# driver::Group::rekey runs, must end every message with the reference's
# stats, success rounds, server state, clock bits, next link answers, IDs,
# path keys and first failure, for both receiver models (DESIGN.md "One
# transport loop", "Only the receiver's own work"). Its second proptest holds
# each model's next_read to a bound that skips no frame reads_now takes,
# over real schedules with forged, truncated, foreign and NACK/USR frames.
cargo test --release -q -p grouprekey --lib receiver_reference
# A walk in spans must answer and leave every link as per-question transmit
# on a twin network does; the two models must agree with each other, message
# by message; the installer names the earliest failing member; each lane of
# the eight-lane unseal answers as the one-lane unseal does, a forged lane
# failing alone. The session's one reference is PROTOCOL.md §5 written
# plainly (every frame kept, every candidate block decoded in full): a
# session fed as the walk feeds it must answer every frame as the reference
# does and end every round with the same NACK, success round, ID, outcome
# bytes and decode work.
cargo test --release -q -p netsim --lib walk_spans
cargo test --release -q --test model_agreement
cargo test --release -q -p grouprekey --lib installer_names_the_earliest_failing_member
cargo test --release -q -p wirecrypto --lib unseal_group_equals_scalar_unseal
cargo test --release -q -p rekeyproto --test reference_session

# One stage per tracked report: regenerate its one full grid under target/
# (so it never clobbers the committed file) and `cmp` it with the committed
# report. Every row is an exact fact — a digest, a byte total, a count, a
# ratio of counts — so any changed byte is a changed output. The report's
# gates (bench_churn's bounded depth, memory reclamation and replay
# identity) are typed checks inside the generating run, which fails before
# it writes. Compaction under the deep oracles is scenario_soak in the
# sanitize test stage above.
for name in figures scale churn; do
    stage "bench_$name: full run, cmp with the committed BENCH_$name.json"
    # The reports go to ./target even when CARGO_TARGET_DIR points elsewhere.
    mkdir -p target
    cargo run -q --release -p bench --bin "bench_$name" -- --out "target/BENCH_$name.json"
    cmp "target/BENCH_$name.json" "BENCH_$name.json"
    if [ "$name" = figures ]; then
        # Every figure again on one grid worker: the fan-out must not show
        # in the bytes of any figure, not only the four figure_identity
        # samples.
        REKEY_THREADS=1 cargo run -q --release -p bench --bin bench_figures -- \
            --out target/BENCH_figures.serial.json
        cmp target/BENCH_figures.serial.json BENCH_figures.json
    fi
done

stage "obs gate: build + test with --features obs"
# crates/bench/tests/obs_outputs.rs records a scenario run in the event log
# and the series recorder here and checks the trace and the obs_series/v1
# columns structurally.
cargo build -q --workspace --features obs
cargo test -q --workspace --features obs

stage "repo benchmark (benchmark/: its tests + one smoke round)"
# benchmark/ is a package of its own (outside the workspace) that compiles
# against the crates' public API; run from the repo root so
# .cargo/config.toml applies.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke

stage_end
echo ""
echo "==> ci.sh: all gates passed"
echo "    stage wall times:"
for i in "${!STAGE_NAMES[@]}"; do
    printf '    %4ss  %s\n' "${STAGE_SECONDS[$i]}" "${STAGE_NAMES[$i]}"
done
echo "    Rust lines per crate, non-test | test (test: crates/<crate>/tests, a src"
echo "    file from its first top-level #[cfg(test)] on, a module declared under one):"
# The working tree, not the index: a module not yet staged counts too.
rust_files=$(git ls-files --cached --others --exclude-standard 'crates/*.rs')
# shellcheck disable=SC2086 # one argument per file
awk '
    # Pass 1: `#[cfg(test)] mod name;` makes the file of that module test code.
    pass == 1 && cfg_test && /^mod [a-z_0-9]+;$/ {
        dir = FILENAME; sub(/(lib|main|mod)\.rs$/, "", dir); sub(/\.rs$/, "/", dir)
        test_module[dir substr($2, 1, length($2) - 1) ".rs"] = 1
    }
    pass == 1 { cfg_test = /^#\[cfg\(test\)\]$/; next }
    FNR == 1 {
        split(FILENAME, part, "/"); crate = part[2]
        test = part[3] == "tests" || (FILENAME in test_module)
    }
    /^#\[cfg\(test\)\]$/ { test = 1 }
    { if (test) tests[crate]++; else code[crate]++; crates[crate] = 1 }
    END {
        for (crate in crates) {
            printf "    %6d | %6d  %s\n", code[crate], tests[crate], crate | "sort -k4"
            all_code += code[crate]; all_tests += tests[crate]
        }
        close("sort -k4")
        printf "    %6d | %6d  total\n", all_code, all_tests
    }' pass=1 $rust_files pass=2 $rust_files
echo "    Rust lines tracked by ROADMAP (crates/<crate>, src, tests, examples):"
git ls-files --cached --others --exclude-standard 'crates/*.rs' 'src/*.rs' 'tests/*.rs' 'examples/*.rs' |
    xargs wc -l | awk '
    $2 != "total" {
        split($2, part, "/")
        row = part[1] == "crates" ? "crates/" part[2] : part[1]
        lines[row] += $1; all += $1
    }
    END {
        for (row in lines) printf "    %6d  %s\n", lines[row], row | "sort -k2"
        close("sort -k2")
        printf "    %6d  total\n", all
    }'
echo "    #[expect] reasons citing each ROADMAP item:"
# Only `reason = "..."` lines count: a comment naming an item is not an exception.
grep -rhE '^\s*reason = ".*ROADMAP [0-9]' crates/*/src | grep -oE 'ROADMAP [0-9]+[ab]?' |
    sort | uniq -c | awk '
    { printf "    %6d  %s %s\n", $1, $2, $3; all += $1 }
    END { printf "    %6d  total\n", all + 0 }' || true
