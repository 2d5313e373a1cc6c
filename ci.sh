#!/usr/bin/env bash
# Full local CI: formatting, lints, docs (warnings fatal), build, tests.
# Runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> cargo test --doc"
cargo test --offline --workspace --doc -q

echo "==> sanitizer lane (ASan+LSan over detsim and gpusim: fiber runtime, inline closure storage, slabs)"
# Any AddressSanitizer or LeakSanitizer report fails the run. The fiber
# switch is not annotated for the sanitizer, so stack-use checks across
# switches are not covered here.
ASAN_OPTIONS=detect_leaks=1 \
    RUSTFLAGS="-Zsanitizer=address" RUSTDOCFLAGS="-Zsanitizer=address" \
    CARGO_TARGET_DIR=target/asan \
    cargo +nightly test --offline --target x86_64-unknown-linux-gnu -p detsim -p gpusim --lib --tests

echo "==> markdown link check (doccheck)"
./target/release/doccheck .

echo "==> bench smoke (simperf --quick)"
./target/release/simperf --quick --json /tmp/simperf_smoke.json
./target/release/simperf --validate /tmp/simperf_smoke.json

echo "==> chaos smoke (chaos --quick)"
./target/release/chaos --quick --iters 2 --metrics /tmp/chaos_smoke.json
test -s /tmp/chaos_smoke.json

echo "==> elastic recovery contract (chaos --scenario kill-respawn --validate)"
./target/release/chaos --quick --iters 2 --scenario kill-respawn --validate

echo "==> mapper smoke (mapperf --quick --validate)"
./target/release/mapperf --quick --validate --json /tmp/mapperf_smoke.json
test -s /tmp/mapperf_smoke.json

echo "==> service smoke (loadgen --quick --validate)"
./target/release/loadgen --quick --validate --json /tmp/loadgen_smoke.json
test -s /tmp/loadgen_smoke.json

echo "==> transport/overlap smoke (overlap --quick --validate)"
./target/release/overlap --quick --validate --json /tmp/overlap_smoke.json
test -s /tmp/overlap_smoke.json

echo "==> benchmark package tests (perfbench)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> benchmark smoke (transport-4n: every rung's virtual time and per-step counts are pinned)"
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perfbench -- \
    --workload transport-4n --seed 1 --seconds 5 --trace 0

echo "==> OK"
