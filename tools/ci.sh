#!/usr/bin/env bash
# The full local gate: formatting, lints, the xcheck static-analysis pass
# (with its machine-readable report), the test suite with the deep
# invariant sanitizer live, the dynamic no-alloc and schedule-perturbation
# harnesses, and the bench/obs smoke runs. Everything runs offline against
# the vendored in-tree dependency shims. Each stage's wall time is
# reported in a summary at the end.
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
cargo clippy --workspace --all-targets -- -D warnings

stage "xcheck static analysis (--json target/xcheck.json)"
mkdir -p target
cargo run -q -p xcheck -- --json target/xcheck.json
python3 - <<'EOF'
import json
with open("target/xcheck.json") as f:
    report = json.load(f)
assert report["schema"] == "xcheck/v1", report["schema"]
assert report["pass"] is True
assert report["violations_total"] == 0
# Every suppression that reaches the report carries a non-empty reason
# (suppression-hygiene flags the rest, which would have failed the run).
for sup in report["suppressions"]:
    assert sup["reason"].strip(), f"reasonless suppression: {sup}"
# The atomics inventory and the no_alloc mark list back the dynamic gates.
assert report["atomics"], "atomics inventory must not be empty"
assert report["no_alloc_marks"], "no_alloc marks must be inventoried"
EOF

stage "cargo test --workspace --features sanitize"
cargo test --workspace -q --features sanitize

stage "dynamic no-alloc harness (xcheck-rt counting allocator)"
cargo test -q -p xcheck-rt
cargo test -q -p keytree --test no_alloc_marks
cargo test -q -p rekeymsg --test no_alloc_marks
cargo test -q -p rse --test no_alloc_marks
cargo test -q -p netsim --test no_alloc_marks
cargo test -q -p grouprekey --test no_alloc_marks
cargo test -q -p obs --test no_alloc_off
cargo test -q -p obs --features enabled --test no_alloc_off
cargo test -q -p obs --test no_alloc_marks
cargo test -q -p obs --features enabled --test no_alloc_marks

stage "schedule-perturbation bit-identity gates"
cargo test -q -p taskpool
cargo test -q -p grouprekey --test sched_perturb
cargo test -q -p bench --test sched_perturb

stage "UKA plan identity (run-aggregated planner vs user-by-user oracle)"
# Proptest bit-identity of the O(E) run-aggregated planner against the
# sanitize-featured reference walk, across random (N, d, churn, layout
# capacity, compaction) including relocation batches and forced splits.
cargo test -q -p rekeymsg --features sanitize --test plan_identity

stage "committed BENCH_*.json parse as JSON"
python3 - <<'EOF'
import glob
import json
files = sorted(glob.glob("BENCH_*.json"))
assert files, "no committed BENCH_*.json found"
for path in files:
    with open(path) as f:
        doc = json.load(f)
    assert isinstance(doc, dict) and doc, f"{path}: not a JSON object"
    print(f"    {path}: valid JSON ({len(doc)} top-level keys)")
EOF

# Smoke runs write under target/ so they never clobber the committed
# full-mode baselines; the committed JSONs are validated read-only.

stage "bench smoke run (target/BENCH_rekey.smoke.json)"
cargo run --release -p bench --bin bench_rekey -- --smoke --out target/BENCH_rekey.smoke.json
if [ ! -s target/BENCH_rekey.smoke.json ]; then
    echo "ci.sh: target/BENCH_rekey.smoke.json missing or empty" >&2
    exit 1
fi
cargo run --release -p bench --bin bench_rekey -- --check target/BENCH_rekey.smoke.json
cargo run --release -p bench --bin bench_rekey -- --check BENCH_rekey.json
if ! grep -q '"mode": "full"' BENCH_rekey.json; then
    echo "ci.sh: committed BENCH_rekey.json is not a full-mode run" >&2
    exit 1
fi

stage "figure engine smoke run (target/BENCH_figures.smoke.json)"
cargo run --release -p bench --bin bench_figures -- --smoke --out target/BENCH_figures.smoke.json
if [ ! -s target/BENCH_figures.smoke.json ]; then
    echo "ci.sh: target/BENCH_figures.smoke.json missing or empty" >&2
    exit 1
fi
cargo run --release -p bench --bin bench_figures -- --check target/BENCH_figures.smoke.json
cargo run --release -p bench --bin bench_figures -- --check BENCH_figures.json
if ! grep -q '"mode": "full"' BENCH_figures.json; then
    echo "ci.sh: committed BENCH_figures.json is not a full-mode run" >&2
    exit 1
fi

stage "scale bench smoke run (target/BENCH_scale.smoke.json)"
cargo run --release -p bench --bin bench_scale -- --smoke --out target/BENCH_scale.smoke.json
if [ ! -s target/BENCH_scale.smoke.json ]; then
    echo "ci.sh: target/BENCH_scale.smoke.json missing or empty" >&2
    exit 1
fi
cargo run --release -p bench --bin bench_scale -- --check target/BENCH_scale.smoke.json
cargo run --release -p bench --bin bench_scale -- --check BENCH_scale.json
if ! grep -q '"mode": "full"' BENCH_scale.json; then
    echo "ci.sh: committed BENCH_scale.json is not a full-mode run" >&2
    exit 1
fi

stage "churn bench smoke run (target/BENCH_churn.smoke.json)"
# The sanitize feature routes every scenario batch through the deep
# secrecy/delivery oracles and the Theorem 4.2 / explicit-relocation
# re-derivations, so the smoke sweep is also an end-to-end compaction
# correctness gate.
cargo run --release -p bench --features sanitize --bin bench_churn -- \
    --smoke --out target/BENCH_churn.smoke.json
if [ ! -s target/BENCH_churn.smoke.json ]; then
    echo "ci.sh: target/BENCH_churn.smoke.json missing or empty" >&2
    exit 1
fi
cargo run --release -p bench --bin bench_churn -- --check target/BENCH_churn.smoke.json
cargo run --release -p bench --bin bench_churn -- --check BENCH_churn.json
if ! grep -q '"mode": "full"' BENCH_churn.json; then
    echo "ci.sh: committed BENCH_churn.json is not a full-mode run" >&2
    exit 1
fi

stage "bench regression sentinel (bench_diff vs committed baselines)"
# Fresh smoke runs (written under target/ by the stages above) against
# the committed full-mode baselines. Rows match by identity coordinates,
# so the smoke/full grids compare exactly where they intersect: timing
# keys within the tolerance band, deterministic keys (digests, byte
# totals, counts) exactly. bench_rekey keeps the same grid in both
# modes, so that diff is a real end-to-end sentinel.
for name in rekey scale churn; do
    cargo run -q --release -p bench --bin bench_diff -- \
        --baseline "BENCH_${name}.json" --candidate "target/BENCH_${name}.smoke.json" \
        --out "target/bench_diff_${name}.json" --check
done
python3 - <<'EOF'
import json
for name in ("rekey", "scale", "churn"):
    with open(f"target/bench_diff_{name}.json") as f:
        verdict = json.load(f)
    assert verdict["schema"] == "bench_diff/v1", verdict["schema"]
    assert verdict["verdict"] == "pass", verdict
    assert verdict["compared"] >= 1, verdict
    print(f"    {name}: {verdict['compared']} compared, {verdict['matched']} matched, "
          f"{verdict['only_baseline']}/{verdict['only_candidate']} unmatched")
# The rekey grid is identical in smoke and full mode: the whole report
# must intersect, or the coordinate matching has regressed.
with open("target/bench_diff_rekey.json") as f:
    assert json.load(f)["compared"] >= 10, "rekey diff barely intersected"
EOF

stage "obs gate: build + test with --features obs"
cargo build -q --workspace --features obs
cargo test -q --workspace --features obs

stage "obs gate: bench_scale --smoke --obs-out target/obs.smoke.json"
cargo run -q --release -p bench --features bench/obs --bin bench_scale -- \
    --smoke --out target/BENCH_scale.obs-smoke.json --obs-out target/obs.smoke.json
if [ ! -s target/obs.smoke.json ]; then
    echo "ci.sh: target/obs.smoke.json missing or empty" >&2
    exit 1
fi
for key in '"schema": "obs_scale/v1"' '"schema": "obs/v1"' '"coverage_pct"' \
    'stage.mark' 'stage.mint' 'stage.seal' 'keytree.mark_batch' 'uka.build'; do
    if ! grep -q "$key" target/obs.smoke.json; then
        echo "ci.sh: obs snapshot is missing $key" >&2
        exit 1
    fi
done
# Balanced-brace structural parse, same check the --check flags apply.
python3 - <<'EOF'
import json
with open("target/obs.smoke.json") as f:
    snap = json.load(f)
assert snap["schema"] == "obs_scale/v1", snap["schema"]
assert snap["obs"]["enabled"] is True
names = {s["name"] for s in snap["obs"]["spans"]}
for expected in ("stage.mark", "stage.mint", "stage.seal", "keytree.mark_batch", "uka.build"):
    assert expected in names, f"missing span {expected}: {sorted(names)}"
EOF

stage "obs gate: flight-recorder trace export + per-interval time-series"
# A traced identity replay (one track per taskpool worker) and a traced
# + series-recorded churn replay; both Chrome trace exports are validated
# structurally (balanced B/E nesting, monotone per-track timestamps)
# and the obs_series/v1 column shapes are checked. The smoke cell's seal
# fan-out is ~0.1 ms of work, so on a box that runs the scoped workers
# one after another each would adopt the previous one's freed ring; the
# perturbation seed's yield points keep at least two alive at once.
XCHECK_SCHED_SEED=1 cargo run -q --release -p bench --features bench/obs --bin bench_scale -- \
    --smoke --out target/BENCH_scale.trace-smoke.json \
    --trace-out target/trace_scale.smoke.json
cargo run -q --release -p bench --features bench/obs --bin bench_churn -- \
    --smoke --out target/BENCH_churn.obs-smoke.json \
    --series-out target/obs_series_churn.smoke.json \
    --trace-out target/trace_churn.smoke.json
python3 - <<'EOF'
import json

def validate_trace(path, min_map_workers=0):
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    assert isinstance(events, list) and events, f"{path}: no events"
    labels = {}
    tracks = {}
    for e in events:
        assert e["pid"] == 1, e
        if e["ph"] == "M":
            labels[e["tid"]] = e["args"]["name"]
            continue
        assert e["ph"] in ("B", "E", "i"), e
        tracks.setdefault(e["tid"], []).append(e)
    assert set(tracks) <= set(labels), f"{path}: unlabeled tracks"
    for tid, es in tracks.items():
        last, depth = -1.0, 0
        for e in es:
            assert e["ts"] >= last, f"{path}: ts not monotone on track {tid}"
            last = e["ts"]
            if e["ph"] == "B":
                depth += 1
            elif e["ph"] == "E":
                depth -= 1
                assert depth >= 0, f"{path}: E without B on track {tid}"
        assert depth == 0, f"{path}: {depth} unclosed spans on track {tid}"
    workers = [l for l in labels.values() if l.startswith("map-")]
    assert len(workers) >= min_map_workers, f"{path}: worker tracks {sorted(labels.values())}"
    print(f"    {path}: {len(events)} events, tracks {sorted(labels.values())}")

# The identity replay's four-worker leg fans the seal chunks out, so at
# least two `map-*` worker tracks must appear next to the caller's.
validate_trace("target/trace_scale.smoke.json", min_map_workers=2)
validate_trace("target/trace_churn.smoke.json")

with open("target/obs_series_churn.smoke.json") as f:
    series = json.load(f)
assert series["schema"] == "obs_series/v1", series["schema"]
points = series["points"]
assert points > 0 and len(series["intervals"]) == points
names = {s["name"] for s in series["series"]}
for required in ("users", "joins", "leaves", "enc_per_member", "bytes_on_wire",
                 "max_depth", "mean_depth", "resident_bytes"):
    assert required in names, f"missing series {required}: {sorted(names)}"
for s in series["series"]:
    assert len(s["values"]) == points, s["name"]
print(f"    obs_series: {points} intervals x {len(names)} series")
EOF

stage "obs overhead bench (BENCH_obs smoke cycle + committed gates)"
# Smoke cycle: generate, self-gate, re-check. The committed full-mode
# report must hold the acceptance gates (recorder overhead <= 5% of
# wall, zero off-path allocations, no dropped events).
cargo run -q --release -p bench --features bench/obs --bin bench_obs -- \
    --smoke --out target/BENCH_obs.smoke.json
cargo run -q --release -p bench --features bench/obs --bin bench_obs -- \
    --check target/BENCH_obs.smoke.json
cargo run -q --release -p bench --features bench/obs --bin bench_obs -- \
    --check BENCH_obs.json
if ! grep -q '"mode": "full"' BENCH_obs.json; then
    echo "ci.sh: committed BENCH_obs.json is not a full-mode run" >&2
    exit 1
fi

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
echo "    Rust lines per crate (tracked files under crates/*/src):"
git ls-files 'crates/*/src/*.rs' | xargs wc -l | awk '
    $2 != "total" { split($2, part, "/"); lines[part[2]] += $1; all += $1 }
    END {
        for (crate in lines) printf "    %6d  %s\n", lines[crate], crate | "sort -k2"
        close("sort -k2")
        printf "    %6d  total\n", all
    }'
