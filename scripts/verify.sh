#!/usr/bin/env bash
# Full local verification: tier-1 (build + tests) plus lints.
#
#   scripts/verify.sh          # run everything
#   scripts/verify.sh --quick  # tier-1 only (skip clippy/fmt/rustdoc)
#
# Everything runs offline; the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

# The script must leave the working tree as it found it: every output goes
# to target/, perfbench/target/ or a temporary directory. Snapshot the
# status now and compare at the end, so a dirty working copy still verifies.
# The diff against HEAD catches a write to a file that was already dirty.
tree_status() { git status --porcelain 2> /dev/null; git diff HEAD 2> /dev/null; true; }
status_before=$(tree_status)

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q (every crate's unit and integration tests)"
# This also runs the root suites `exploration` (the pinned `repro
# explore` design, A2/A3 rows, mapping search against brute force),
# `faults` (fault-injection determinism + ARQ contract) and
# `log_identity` (pinned simulation logs).
cargo test --workspace -q

echo "==> repro fault-sweep --quick (reliability smoke point)"
cargo run --release -q -p tut-bench --bin repro -- fault-sweep --quick

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

echo "==> repro profile --quick --folded (self-profiler smoke)"
folded_out=$(cargo run --release -q -p tut-bench --bin repro -- profile --quick --folded)
if [[ -z "$folded_out" ]]; then
    echo "repro profile --quick --folded produced no collapsed stacks"; exit 1;
fi

echo "==> repro profile bench --quick (throughput floor WITH profiling enabled)"
cargo run --release -q -p tut-bench --bin repro -- profile bench --quick > /dev/null

echo "==> repro check (diagnostics exit contract)"
# Clean model: warnings at most, exit 0.
cargo run --release -q -p tut-bench --bin repro -- check > /dev/null
# Known-bad fixture: must exit nonzero and report the expected stable
# codes — a syntax error, a well-formedness violation, and a profile-rule
# violation, all in one run.
if check_out=$(cargo run --release -q -p tut-bench --bin repro -- check \
    crates/bench/fixtures/check_bad.xml); then
    echo "repro check on check_bad.xml should have exited nonzero"; exit 1;
fi
for code in E0110 E0314 E0202; do
    if ! grep -q "$code" <<< "$check_out"; then
        echo "repro check on check_bad.xml did not report $code"; exit 1;
    fi
done
# Out-of-range platform parameter: the sim-setup dry run must surface a
# spanned E0410 instead of letting the value truncate at simulation time.
if range_out=$(cargo run --release -q -p tut-bench --bin repro -- check \
    crates/bench/fixtures/check_param_range.xml); then
    echo "repro check on check_param_range.xml should have exited nonzero"; exit 1;
fi
if ! grep -q "E0410" <<< "$range_out"; then
    echo "repro check on check_param_range.xml did not report E0410"; exit 1;
fi

echo "==> repro check --store (warm re-check drill: second process answers from disk)"
# First process populates the disk report cache; a second process must
# answer the identical check entirely from the journal (100% hit rate).
check_store=$(mktemp -d -p "$tmp_dir")
cargo run --release -q -p tut-bench --bin repro -- check --cache-stats \
    --store "$check_store" > /dev/null
warm_out=$(cargo run --release -q -p tut-bench --bin repro -- check --cache-stats \
    --store "$check_store")
if ! grep -q "hit rate 100.0%" <<< "$warm_out"; then
    echo "repro check --store: second process was not a pure disk hit"; exit 1;
fi

echo "==> repro bench-check (cold vs warm floor, byte-identity)"
# Full mode: enforces the >=10x warm re-check floor and verifies every
# warm report byte-identical to the cold pipeline. The speedup line is
# printed so every run shows the margin over the floor.
bench_out=$(cargo run --release -q -p tut-bench --bin repro -- bench-check)
grep "speedup" <<< "$bench_out"

echo "==> perfbench smoke (each flow workload builds, runs 1 s, fails no check, same exact lines)"
# perfbench is a workspace of its own, so the steps above never build it.
# Every `exact:`/`fingerprint:` line (simulated counts, log and report
# hashes) must match scripts/perfbench_exact.txt, so a speed-only change
# that alters a simulated count or a log byte fails here.
perf_exact=$(mktemp -p "$tmp_dir")
for workload in paper_flow fault_campaign edit_check; do
    perf_out=$(cargo run --quiet --release --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0)
    perf_last=$(tail -n 1 <<< "$perf_out")
    if ! grep -q '"failed": 0,' <<< "$perf_last"; then
        echo "perfbench $workload: a check failed: $perf_last"; exit 1;
    fi
    grep -E '^(exact|fingerprint):' <<< "$perf_out" | sed "s/^/$workload /" >> "$perf_exact"
done
if ! diff <(grep -v '^#' scripts/perfbench_exact.txt) "$perf_exact"; then
    echo "perfbench: exact/fingerprint lines differ from scripts/perfbench_exact.txt"; exit 1;
fi

if [[ "$quick" -eq 0 ]]; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo fmt --check"
    cargo fmt --check

    echo "==> cargo doc (rustdoc warnings, dangling intra-doc links included, are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
fi

echo "==> git status unchanged (verify.sh writes no file in the working tree)"
status_after=$(tree_status)
if [[ "$status_after" != "$status_before" ]]; then
    diff <(echo "$status_before") <(echo "$status_after") || true
    echo "verify.sh changed the working tree (git status differs from the start)"; exit 1;
fi

echo "==> OK"
