# Developer entry points. `make check` is the full gate run in CI and
# before every commit; the individual targets exist for quicker loops.

.PHONY: check build lint lint-diff test doc clippy bench-build bench-check bench bench-diff timing faults faults-check serve-check serve-net-check

check: build lint lint-diff test doc clippy bench-build bench-check faults-check serve-check serve-net-check

build:
	cargo build --release

# Workspace invariant checker: determinism, panic-safety, and hygiene
# contracts (see ARCHITECTURE.md § Static analysis). `--json` emits the
# stable machine-readable report for diffing across commits.
lint:
	cargo run --release -q -p aerorem-lint -- --root .

# Ratchet: the current --json report may not contain findings absent from
# the committed baseline (scripts/lint_baseline.json); shrinkage passes.
# Refresh deliberately with scripts/lint_diff --update.
lint-diff:
	./scripts/lint_diff

# Every workspace crate's tests, not only the root package's: the
# member crates hold the kNN brute-force oracle, the exec and CRC
# proptests and the octree tests.
test:
	cargo test -q --workspace

# Every workspace crate's docs with warnings as errors (broken or private
# intra-doc links fail). The vendored rand/proptest/criterion subsets are
# excluded: they are stand-ins, not documented API.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --exclude rand --exclude proptest --exclude criterion

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Benches must always compile, even when nobody runs them.
bench-build:
	cargo bench --no-run

# Smoke-sized run of the custom-harness benches: every bit-identity
# assertion executes (including the PR-7 executor scaling sweep, the
# PR-8 kriging fill, and the batched ≡ per-voxel kNN lattice fill), but
# the workloads are small and the committed artifacts are left alone.
bench-check:
	AEROREM_BENCH_SMOKE=1 cargo bench -q -p aerorem-bench --bench train_select
	AEROREM_BENCH_SMOKE=1 cargo bench -q -p aerorem-bench --bench sim_campaign
	AEROREM_BENCH_SMOKE=1 cargo bench -q -p aerorem-bench --bench scaling
	AEROREM_BENCH_SMOKE=1 cargo bench -q -p aerorem-bench --bench kriging_fill
	AEROREM_BENCH_SMOKE=1 cargo bench -q -p aerorem-bench --bench rem_lattice

# Serving-layer gate (PR 6): the aerorem-serve unit tests with the
# detected worker count and with one worker (AEROREM_EXEC_THREADS=1 runs
# every parallel call inline), plus a smoke-sized run of the serve bench —
# every snapshot round-trip and serial≡parallel identity assertion
# executes, but BENCH_3.json is left alone.
serve-check:
	cargo test -q -p aerorem-serve
	AEROREM_EXEC_THREADS=1 cargo test -q -p aerorem-serve
	AEROREM_BENCH_SMOKE=1 cargo bench -q -p aerorem-bench --bench serve

# Network serving gate (PR 9): the wire codec property tests, the
# end-to-end daemon tests (UDS + TCP loopback: query bit-identity,
# hot-swap, namespaces, shutdown — both ExecPolicy arms), and a
# smoke-sized run of the wire bench; BENCH_6.json is left alone.
serve-net-check:
	cargo test -q --test wire --test serve_net
	AEROREM_EXEC_THREADS=1 cargo test -q --test wire --test serve_net
	AEROREM_BENCH_SMOKE=1 cargo bench -q -p aerorem-bench --bench wire

# Regenerates the committed bench artifacts at full size: BENCH_2.json
# (lattice fill), BENCH_3.json (training + campaign + serving),
# BENCH_4.json (executor scaling), BENCH_5.json (kriging hot path), and
# BENCH_6.json (wire serving).
bench:
	cargo bench -p aerorem-bench --bench rem_lattice
	cargo bench -p aerorem-bench --bench train_select
	cargo bench -p aerorem-bench --bench sim_campaign
	cargo bench -p aerorem-bench --bench serve
	cargo bench -p aerorem-bench --bench scaling
	cargo bench -p aerorem-bench --bench kriging_fill
	cargo bench -p aerorem-bench --bench wire

# Gates fresh BENCH_3.json / BENCH_4.json / BENCH_5.json / BENCH_6.json stage
# times against the committed baselines (>25 % wall-time regressions fail)
# and each stage's parallel arm against its serial pair (parallel must
# never lose; see scripts/bench_diff).
bench-diff:
	./scripts/bench_diff

# Full-size failure-injection suite with the detected worker count and
# with one worker (AEROREM_EXEC_THREADS=1): retries, lossy-link
# quarantine, battery abort, checkpoint/resume bit-identity.
faults:
	cargo test -q --test failure_injection
	AEROREM_EXEC_THREADS=1 cargo test -q --test failure_injection

# Smoke-sized variant of `faults` for the `check` gate: same assertions,
# shrunken campaigns (AEROREM_FAULTS_SMOKE=1).
faults-check:
	AEROREM_FAULTS_SMOKE=1 cargo test -q --test failure_injection
	AEROREM_FAULTS_SMOKE=1 AEROREM_EXEC_THREADS=1 cargo test -q --test failure_injection

# Serial-vs-parallel pipeline timing table (see EXPERIMENTS.md).
timing:
	cargo run --release -p aerorem-bench --bin experiments -- timing
