#!/bin/sh
# Repo verification: format, lint, release build, and every test of the
# workspace — tier-1 (the root package) plus each crate's own suite: the
# full fault sweeps and the txn protocol tests live in crates/wal/tests and
# crates/txn/tests, outside tier-1 (~60 s) — plus the out-of-workspace
# benchmark harness's build and tests.
# Everything runs offline — external deps are vendored under vendor/.
set -eux

cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test --workspace -q

# The benchmark harness is its own package outside the workspace and calls
# the crates through their public functions only: build and test it here,
# so a public-API change that breaks it fails locally, not in the bench
# pipeline.
cargo test --offline --manifest-path benchmark/Cargo.toml

# Differential strategy-equivalence audit: horizontal vs vertical vs
# vertical with parallel `⋈̄` arms must leave bit-equivalent structures, and
# the vertical run's hash arm must stay under 0.2 random I/Os per victim.
cargo run --release -p bd-bench --bin repro -- --audit --parallel 3

# Fault-injection smoke: a transient fault must be ridden out (retry +
# serial degradation, bit-identical state), a bounded crash sweep must
# recover every crash point of the WAL driver at one worker and at three,
# and a bounded torn-write sweep through the same harness must
# media-recover every surfaced tear (half-written page images rebuilt from
# the heap + WAL).
cargo run --release -p bd-bench --bin repro -- --faults --parallel 3

# Bench-snapshot gate: a bounded fig7 sweep must produce a valid
# machine-readable BENCH_<n>.json snapshot (schema, required fields,
# point count), keeping the perf trajectory emitters honest.
cargo run --release -p bd-bench --bin repro -- fig7 --rows 20000 --bench-json target/bench_ci.json
cargo run --release -p bd-bench --bin repro -- --check-bench target/bench_ci.json

# The committed fig7+fig8 snapshots (before and after write-behind) must
# stay schema-valid.
for snapshot in BENCH_6.json BENCH_14.json; do
    cargo run --release -p bd-bench --bin repro -- --check-bench "$snapshot"
done

# Online smoke: offline vs live bulk delete under foreground traffic at a
# bounded scale. Every run is shadow-model-checked, and the emitted
# snapshot must validate including its per-point foreground percentile
# arrays.
cargo run --release -p bd-bench --bin repro -- --live --rows 20000 --bench-json target/bench_live_ci.json
cargo run --release -p bd-bench --bin repro -- --check-bench target/bench_live_ci.json

# The committed live snapshot must stay schema-valid.
if [ -f BENCH_7.json ]; then
    cargo run --release -p bd-bench --bin repro -- --check-bench BENCH_7.json
fi

# Erasure smoke: the retention-window sweep (plain cascade vs durable
# erasure campaign over the sliding-window warehouse) at a bounded scale.
# Every campaign's proof-of-deletion must come back clean, and a bounded
# crash/torn-write sample of the campaign fault sweep must recover and
# re-prove at every sampled point.
cargo run --release -p bd-bench --bin repro -- --erase --rows 6000 --bench-json target/bench_erase_ci.json
cargo run --release -p bd-bench --bin repro -- --check-bench target/bench_erase_ci.json

# The committed erasure snapshot must stay schema-valid.
if [ -f BENCH_8.json ]; then
    cargo run --release -p bd-bench --bin repro -- --check-bench BENCH_8.json
fi

# Steady-state maintenance smoke: the sliding-window sweep must show the
# daemon holding the disk footprint (in-use pages within 10% of a fresh
# bulk load of the same live rows) while the unmaintained arm leaks, and
# the emitted snapshot must validate.
cargo run --release -p bd-bench --bin repro -- --maintain --rows 20000 --bench-json target/bench_maintain_ci.json
cargo run --release -p bd-bench --bin repro -- --check-bench target/bench_maintain_ci.json

# The committed maintenance snapshot must stay schema-valid.
if [ -f BENCH_9.json ]; then
    cargo run --release -p bd-bench --bin repro -- --check-bench BENCH_9.json
fi

# Engine-comparison smoke: the delete-fraction sweep replayed through the
# engine seam (B-tree bulk delete / drop&create vs the delete-aware LSM's
# tombstone and forced-purge arms) at a bounded scale. Every LSM cell is
# differentially audited against its B-tree twin and its page catalog is
# checked for leaks; the emitted snapshot must validate.
cargo run --release -p bd-bench --bin repro -- --lsm --rows 20000 --bench-json target/bench_lsm_ci.json
cargo run --release -p bd-bench --bin repro -- --check-bench target/bench_lsm_ci.json

# The committed engine-comparison snapshot must stay schema-valid.
if [ -f BENCH_10.json ]; then
    cargo run --release -p bd-bench --bin repro -- --check-bench BENCH_10.json
fi
