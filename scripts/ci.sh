#!/usr/bin/env bash
# Tier-1 gate: build, tests, lint, and the audit layer for the whole
# workspace. Run from the repo root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v rustfmt >/dev/null 2>&1; then
  cargo fmt --check
else
  echo "ci: rustfmt not installed, skipping format check"
fi

cargo build --release
cargo test -q
# The kernel tests again on the optimized, autovectorized codegen that
# training, serving and the benchmark run: the bitwise oracles must hold
# for the code that ships, not only for the debug build.
cargo test -q --release -p gendt-nn
# The context-extraction oracles likewise: the environment, nearest-cell
# and split-merge tests pin the optimized queries to the per-point loops
# they replaced, bit for bit, on the codegen that ships.
cargo test -q --release -p gendt-geo -p gendt-radio -p gendt-data
# Every target: tests, benches and examples are linted as well as the
# library and binary code.
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark is a package of its own (perfbench/), outside the
# workspace: build it and run its unit tests, so an API change in the
# workspace crates cannot break it unnoticed.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Verification layer (crates/audit): repo-invariant lint, per-op
# finite-difference gradcheck, tape verifier, and a sanitized
# (GENDT_SANITIZE) train step + generation smoke run.
cargo run --release -p gendt-audit -- lint
cargo run --release -p gendt-audit -- gradcheck
cargo run --release -p gendt-audit -- verify
cargo run --release -p gendt-audit -- smoke

# Trace smoke gate: tiny train + generation with GENDT_TRACE active,
# asserting bitwise parity with the untraced run and that the exported
# Chrome-trace JSON parses with the expected spans + telemetry records.
cargo run --release -p gendt-audit -- trace-smoke

# Plan parity gate: compiled plans (how train and generate run) must be
# bitwise-identical to record mode (every op unfused, one value buffer
# per node, each gradient freed once its node has passed it on), forced
# by GENDT_SANITIZE, for training (weights + loss trace) at an explicit
# 2-thread budget, where both shards replay one shared program on two
# pooled arenas, and for single, batched and chunked generation, recorded
# and replayed, including cached replays in arenas the training programs
# last used and a replay after a cache miss dropped the idle arenas. It
# checks what can differ between the two: fusion, arena binding, arena
# lending, and replay of fresh inputs.
cargo run --release -p gendt-audit -- plan-parity

# Golden gate for the paper tables: the quick evaluation (seed 42) must
# reproduce the bytes recorded in results/quick.sha256. A change that
# moves any number fails here; such a change regenerates the manifest
#   ./target/release/gendt-eval --exp all --quick --out target/ci/quick
#   find target/ci/quick -type f | LC_ALL=C sort | xargs sha256sum > results/quick.sha256
# and says so.
rm -rf target/ci/quick
cargo run --release -p gendt-eval -- --exp all --quick --out target/ci/quick > /dev/null
sha256sum --quiet -c results/quick.sha256

# Concurrency gate: the interleave model checker explores >10k thread
# schedules of the real scheduler/registry/cache state machines through
# the gendt-sync facade (forward pass stubbed), then proves every
# detector fires on seeded-bug fixtures with a replayable token. The
# whole run is bounded (seeded random + bounded-preemption DFS) and
# stamps its explored-schedule count; budget is well under a minute.
cargo run --release -p gendt-audit -- sync-check

# Chaos gate: a real in-process server and a real trainer under seeded
# fault schedules (io_err@serve.batch, io_err@registry.scan,
# drop@http.accept, io_err@checkpoint.write). Asserts typed shed
# envelopes with Retry-After, retry absorption on /v1/reload, crash-safe
# checkpoints with fallback past torn files, and bitwise-identical
# output once the faults clear.
cargo run --release -p gendt-audit -- chaos

# Stream gate: the stateful /v1/stream surface end to end. Asserts the
# concatenation of a session's chunks across open + continuations is
# bitwise-identical to the one-shot /v1/generate series, that a
# mid-stream deadline yields a `deadline` trailer with a resumable
# session, that draining refuses continuations of shed sessions with a
# typed 503, that concurrent opens of one route share a single
# route synthesis (the worker's cache-miss counter rises by 1), and
# that a 4 h walk streamed one window per chunk with no window budget
# arrives whole in one response of over 1 MiB, read by the workspace client,
# with a `complete` trailer and chunks bitwise-equal to one-shot.
cargo run --release -p gendt-audit -- stream-smoke

# Serving gate (crates/serve, crates/fleet): a short run of the
# benchmark's generate and stream workloads, which serve a paper-shape
# checkpoint through the real router and worker. Each run must exit 0
# and end on a line reading "correct":true: every routed /v1/generate
# body equals in-process generation, and streamed chunks equal the
# one-shot series. perfbench refuses to run under any GENDT_* variable,
# so none is set here.
for workload in generate stream; do
  last=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 0 | tail -n 1)
  echo "perfbench $workload: $last"
  case "$last" in
    *'"correct":true'*) ;;
    *) echo "ci: perfbench $workload did not read \"correct\":true" >&2; exit 1 ;;
  esac
done

# Fleet gate (crates/fleet): router + 2 real worker processes. Asserts
# bitwise parity with single-node serving across all five scenarios,
# failover after killing a worker (typed retryable 503 envelopes, at
# least one success, no stranded request), membership convergence on
# /v1/fleet, a clean two-phase drain, and that a fleet started on a
# busy address exits non-zero without leaving a worker running.
cargo run --release -p gendt-fleet --bin gendt-fleet -- smoke

# Observability gate (crates/obs): a 2-worker fleet with tracing on and
# off. Asserts traced responses stay bitwise-identical to the untraced
# baseline, every request's Gendt-Trace-Id lands in both the router's
# and a worker's /v1/debug/trace drain, gendt-obs assembles one valid
# clock-aligned timeline stitching each id across process lanes, the
# router's federated /v1/metrics equals the sum of per-worker scrapes
# (with SLO gauges and worker= labeled series), and both flight
# recorders hold the request ids.
cargo run --release -p gendt-audit -- obs-smoke
