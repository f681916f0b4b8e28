#!/bin/sh
# Repo verification: format, lint, the uncalled-API check, release build,
# every test of the workspace — the root package and each crate's own suite
# (what `cargo test` runs by default) plus the vendored stand-ins' — every
# example, plus the out-of-workspace benchmark harness's build and tests.
# Everything runs offline — external deps are vendored under vendor/.
set -eux

cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# No public function without a caller (a floor: see the script).
scripts/uncalled_pub.sh
cargo build --release
cargo test --workspace -q

# The examples assert what they print; clippy only compiles them. Run each
# one and fail on a non-zero exit.
for example in examples/*.rs; do
    cargo run --release --quiet --example "$(basename "$example" .rs)" >/dev/null
done

# The benchmark harness is its own package outside the workspace and calls
# the crates through their public functions only: build and test it here,
# so a public-API change that breaks it fails locally, not in the bench
# pipeline.
cargo test --offline --manifest-path benchmark/Cargo.toml

# Every workload of BENCHMARK.json end to end, once each; each last line
# must report a correct run.
#
# heap5: wide rows behind one index, the heap pass nearly the whole
# statement, its end state diffed against a shadow model.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload heap5 --seed 42 --seconds 1 --trace 0 | tail -n 1 |
    grep -q '"correct": true'

# arms15: five indices, spilling sorts, the statement fanned out over two
# workers beside its one-worker twin, both diffed against the model.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload arms15 --seed 42 --seconds 1 --trace 0 | tail -n 1 |
    grep -q '"correct": true'

# live15: the chunked live delete beside a closed-loop foreground client,
# checked against the model and an offline twin.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload live15 --seed 42 --seconds 1 --trace 0 | tail -n 1 |
    grep -q '"correct": true'

# The durable driver end to end, once: wal15 crashes a logged delete in its
# table pass, recovers it and audits the result against a shadow model and
# an uncrashed twin. Its last line must report a correct run.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload wal15 --seed 42 --seconds 1 --trace 0 | tail -n 1 |
    grep -q '"correct": true'

# The LSM engine end to end, once and traced: lsm10 checks its delete
# against a model, audits the tree and its page catalog, diffs it against
# a B-tree twin and checks the shape guards. Its last line must report a
# correct run.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload lsm10 --seed 42 --seconds 1 --trace 1 | tail -n 1 |
    grep -q '"correct": true'

# The sliding window end to end, once: window4 is the one workload that
# inserts into the B-trees at scale (the refill appends at every tree's
# right edge), with its model diff and page-catalog audit after each round
# and the maintenance cycle. Its last line must report a correct run.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload window4 --seed 42 --seconds 1 --trace 0 | tail -n 1 |
    grep -q '"correct": true'

# The gate: re-run what the committed snapshot's header says it holds (the
# six figures plus erase, maintain, lsm and plans at 20000 rows, one worker)
# and compare every field of every cell and every experiment's notes as
# printed. One moved digit exits 1 with the cell and field named; each
# experiment's own verdict (the shape claims of the six figures, erase,
# maintain and lsm, erasure proofs, the 10% space budget, the LSM twin and
# page audits, sort/merge within 1.05x of every forced index method) fails
# it the same way. After an
# intended change regenerate the file (README, "Reproducing the paper")
# and commit the diff: it is the PR's before/after.
cargo run --release -p bd-bench --bin repro -- --check-bench BENCH.json
