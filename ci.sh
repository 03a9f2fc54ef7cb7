#!/usr/bin/env bash
# Local CI: formatting, lints, tests, and offline-resolution check.
# The workspace is fully self-contained (no external crates), so every
# step must work without network access.
set -euo pipefail
cd "$(dirname "$0")"

# Every test step runs under a time limit, so a hang fails CI instead of
# stalling it. The limit also covers compiling the step's test binaries:
# from an empty target directory on a 2-core x86-64 host the slowest step,
# `cargo test --workspace --features chaos`, took 163 s (the whole script
# 600 s), so 900 s leaves over 5x headroom.
TEST_TIMEOUT=900

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings are errors)"
# Broken intra-doc links and links to private items are warnings by
# default, so they pile up unseen unless the build refuses them.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo build --workspace --benches"
cargo build --workspace --benches

echo "==> bench ledger, smoke tier (every layer bench's correctness asserts)"
# Runs every cell of the layer ledger on shrunken timing budgets: count
# agreement across A/B arms, equal SIMD output and bytes touched, zero
# suspends, sheds and rejections on the idle governor. It checks no
# timing bound and writes under target/, which the status check below
# holds it to. On a 2-core x86-64 host the run takes about 8 s after a
# 30 s compile.
tree_before=$(git status --porcelain 2>/dev/null || true)
TDFS_BENCH_SMOKE=1 timeout "$TEST_TIMEOUT" cargo bench -p tdfs-bench --bench ledger
if [[ "$(git status --porcelain 2>/dev/null || true)" != "$tree_before" ]]; then
    echo "ci: the smoke ledger run changed the working tree" >&2
    exit 1
fi

echo "==> cargo test --workspace -q"
timeout "$TEST_TIMEOUT" cargo test --workspace -q

echo "==> one-core pass (core + service + cluster at one warp)"
# On one CPU `default_warps()` is 1, so every test that does not pin its
# warps runs the single-worker, single-shard path a multi-core host
# never takes: queries with one shard worker per query. Cluster nodes
# run their granted shards on the same durable shard workers.
taskset -c 0 timeout "$TEST_TIMEOUT" cargo test -p tdfs-core -p tdfs-service -p tdfs-cluster -q

echo "==> scalar fallback pass (TDFS_NO_SIMD=1: gpu + core on the scalar lanes)"
# Every x86-64 build compiles the AVX2 lane kernels and picks them at run
# time, so on an AVX2 host the steps above run the vector lanes, and the
# differential suites compare them against the scalar oracle. This pass
# re-runs the kernel and engine tests with TDFS_NO_SIMD=1, which forces
# the scalar fallback that a host without AVX2 takes.
TDFS_NO_SIMD=1 timeout "$TEST_TIMEOUT" cargo test -p tdfs-gpu -p tdfs-core -q

echo "==> chaos tests (fault injection + deterministic concurrency kit)"
# The chaos feature swaps the fault-point macros from compile-time no-ops
# to the scripted testkit registry; tier-1 tests above run without it, so
# this job cannot change their outcome.
cargo clippy --workspace --all-targets --features chaos -- -D warnings
timeout "$TEST_TIMEOUT" cargo test --workspace --features chaos -q

echo "==> recovery job (durable execution: leases, fencing, resume)"
# Focused re-run of the durability suite: exact counts under scripted
# worker kills and zombie acks, seeded random kill/stall schedules with
# a snapshot/cancel/resume cut on every engine, and the wedge path.
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --test durable -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --features chaos --test chaos_durable -q
# A motif_mix run: every shard worker runs its query's shards on one
# resident device. The benchmark's oracle checks every count against
# reference_count, and it exits non-zero on any reclaimed lease or any
# spilled or leaked arena page, which a device reused across shards
# would be the one to break.
timeout "$TEST_TIMEOUT" cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload motif_mix --seed 1 --seconds 20 --trace 0 >/dev/null

echo "==> overload job (governor: budget, shedding, brownout)"
# Focused re-run of the overload suite: the client storm under a tiny
# memory budget, suspend/resume exactness on every engine, sojourn
# shedding, the cost gate, and the breaker lifecycle — plus the
# chaos-scripted phantom-pressure suspension.
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --test overload -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --features chaos --test chaos -q

echo "==> dynamic job (delta CSR, standing queries, match-delta exactness)"
# Focused re-run of the batch-dynamic suite: DeltaCsr view/rebuild
# equivalence properties, incremental standing deltas == full rescans
# across every engine over randomized mutation schedules, snapshot
# resume fenced to the graph version, and the chaos storm (midbatch
# crashes invisible, a panicking subscriber unsubscribed while the
# others still get their delta, kill/stall storms over maintenance
# still exact).
timeout "$TEST_TIMEOUT" cargo test -p tdfs-graph --test delta_prop -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --test standing -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --features chaos --test chaos_standing -q
# The service benchmark's own tests, then a standing_churn run: its
# oracle checks every read against the running count built from the
# standing deltas, and the final ring recount; it exits non-zero on any
# wrong answer. It runs the benchmark's own 20 s, because the benchmark
# also exits non-zero when a 4 s segment leaves fewer than 10 samples
# beyond the p90, and shorter runs risk that on a slow or loaded host.
timeout "$TEST_TIMEOUT" cargo test --manifest-path perfbench/Cargo.toml -q
timeout "$TEST_TIMEOUT" cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload standing_churn --seed 1 --seconds 20 --trace 0 >/dev/null

echo "==> storage job (TDFSGRPH container, mmap reader, disk catalog)"
# Focused re-run of the big-graph storage tier: golden wire-format
# bytes (byte-for-byte pinned, CRCs included), the corruption matrix
# (every byte-flip class maps to a typed error, never a silently wrong
# graph), CsrGraph <-> container <-> mmap and delta-over-mmap property
# suites, and the service restart-resume suite — mmap'd graphs 10x the
# memory budget exact on every engine, reopen at the same GraphVersion
# with overlays intact, persisted suspended queries resumed to the
# uninterrupted count — plus the torn-sidecar-write chaos cut.
timeout "$TEST_TIMEOUT" cargo test -p tdfs-graph --test container_golden -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-graph --test container_corrupt -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-graph --test container_prop -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --test storage -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --features chaos --test chaos_storage -q

echo "==> crashsim job (simulated power loss, intent journal, tdfsck)"
# Crash-consistency acceptance: the exhaustive crash-point sweep (every
# recorded I/O op x every crash style recovers to exactly the pre- or
# post-operation catalog, resumes checkpoints exactly, and audits clean
# under tdfsck), the seeded random-crash property, the golden corrupt-
# fixture suite (torn manifest, orphan container, stale/corrupt intent
# journal, missing sidecar — each classified and repaired), and the
# chaos cut killing a cluster node mid-adoption to rejoin through its
# journal.
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --test crashsim -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-service --test fsck -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-cluster --features chaos --test chaos_cluster -q node_killed_mid_adoption

echo "==> cluster job (replicated shards, snapshot failover, network chaos)"
# Focused re-run of the multi-node tier: the fault-free protocol suite
# (ship/adopt/grant/ack over loopback TCP, exactness vs the in-process
# reference, graceful retire), then the chaos suite — kill -9 of a node
# mid-query failing over via snapshot shipping to the exact count, a
# partitioned node fenced by the lease epoch so its late ack lands
# exactly once, frame drop/duplicate storms absorbed by the seq cache,
# and the seeded sweep over every engine x K3/K4/house x kill/partition.
timeout "$TEST_TIMEOUT" cargo test -p tdfs-cluster --test cluster -q
timeout "$TEST_TIMEOUT" cargo test -p tdfs-cluster --features chaos --test chaos_cluster -q

# The full ledger tier: rewrites BENCH.json, then checks every row's
# bound (SIMD lanes, delta maintenance, storage tier, governor and
# cluster overhead) and fails naming each violated row. Timing bounds
# depend on the host, so this step is opt-in.
if [[ "${TDFS_BENCH_GUARD:-0}" == "1" ]]; then
    echo "==> bench ledger, full tier (every bound checked)"
    timeout "$TEST_TIMEOUT" cargo bench -p tdfs-bench --bench ledger
else
    echo "==> bench ledger, full tier: skipped (set TDFS_BENCH_GUARD=1 to run)"
fi

# Nightly-only ThreadSanitizer pass over the lock-free queue and the page
# arena, the two places where a memory-ordering mistake would be silent.
# Opt in with TDFS_NIGHTLY_TSAN=1 (requires a nightly toolchain with
# rust-src); the default CI run is unchanged without it.
if [[ "${TDFS_NIGHTLY_TSAN:-0}" == "1" ]]; then
    echo "==> ThreadSanitizer (nightly): queue + arena test binaries"
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        timeout "$TEST_TIMEOUT" cargo +nightly test -Z build-std --target x86_64-unknown-linux-gnu \
        -p tdfs-gpu -p tdfs-mem -q
else
    echo "==> ThreadSanitizer: skipped (set TDFS_NIGHTLY_TSAN=1 to run)"
fi

echo "==> offline resolution check"
cargo metadata --offline --format-version 1 >/dev/null

echo "ci: all checks passed"
