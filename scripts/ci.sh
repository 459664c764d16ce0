#!/usr/bin/env bash
# The single local CI entry point: runs exactly the steps of
# .github/workflows/ci.yml, in the same order, so the offline container and
# the hosted workflow can never drift apart.  Keep the two files in sync.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release)"
cargo build --release

echo "==> test"
cargo test -q

echo "==> fmt check"
cargo fmt --all --check

echo "==> panic-site ratchet (lint_unwrap)"
./scripts/lint_unwrap.sh

echo "==> docs (rustdoc, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Thread counts, PPSFP word widths and the BDD variable-ordering mode are
# paired diagonally (1 thread at 8 lanes without sifting, 2 at 8 and 8 at 1
# with sifting to convergence) instead of a full 3x3x2 product: every
# width, every thread count and both DVO modes are exercised through the
# env knobs while the suite runs three times, not eighteen.  The suites
# additionally cross widths, policies and DVO modes internally, so the
# pairing loses no coverage.
echo "==> determinism matrix (proptests + dvo_equivalence at MSATPG_THREADS:MSATPG_WORD_WIDTH:MSATPG_DVO = 1:8:never/2:8:until-convergence/8:1:until-convergence)"
for triple in 1:8:never 2:8:until-convergence 8:1:until-convergence; do
    threads=${triple%%:*}
    rest=${triple#*:}
    width=${rest%%:*}
    dvo=${rest#*:}
    echo "    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo}"
    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo} \
        cargo test -q --release --test proptests
    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo} \
        cargo test -q --release --test dvo_equivalence
done

echo "==> kill-and-resume smoke (checkpoint_resume at MSATPG_THREADS:MSATPG_WORD_WIDTH:MSATPG_DVO = 1:8:never/2:8:until-convergence/8:1:until-convergence)"
for triple in 1:8:never 2:8:until-convergence 8:1:until-convergence; do
    threads=${triple%%:*}
    rest=${triple#*:}
    width=${rest%%:*}
    dvo=${rest#*:}
    echo "    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo}"
    MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo} \
        cargo test -q --release --test checkpoint_resume
    out=$(MSATPG_THREADS=${threads} MSATPG_WORD_WIDTH=${width} MSATPG_DVO=${dvo} \
        cargo run -q --release --example checkpoint_resume)
    echo "${out}"
    # The example prints the knobs AtpgOptions::from_env resolved; if they
    # are not the triple set here, the matrix silently tests the defaults.
    resolved=$(sed -n 's/^knobs: *//p' <<<"${out}")
    if [ "${resolved}" != "${triple}" ]; then
        echo "resolved knobs '${resolved}' differ from the matrix triple '${triple}'" >&2
        exit 1
    fi
    # A threaded triple must reach the pipelined driver: a campaign left on
    # a serial entry point would spawn no workers and pass unnoticed.
    spawns=$(sed -n 's/^spawns: *//p' <<<"${out}")
    if [ "${threads}" -ge 2 ] && [ "${spawns}" -eq 0 ]; then
        echo "MSATPG_THREADS=${threads} but the example's pool spawned no workers" >&2
        exit 1
    fi
done

echo "==> perf-regression smoke (bench_kernels --check)"
cargo run --release -p msatpg-bench --bin bench_kernels -- --check

echo "==> flowbench tests"
cargo test --release --offline --manifest-path flowbench/Cargo.toml

echo "==> flowbench smoke (fig4_flow for 3 s, must report \"failed\": 0)"
result=$(cargo run --release --quiet --offline --manifest-path flowbench/Cargo.toml -- \
    --workload fig4_flow --seed 1 --seconds 3 --trace 0 | tail -n 1)
echo "${result}"
grep -q '"failed": 0,' <<<"${result}"

# Every iteration compares each constrained campaign with
# flowbench/reference.txt, so this catches any digital report that stops
# being byte-identical.
echo "==> flowbench smoke (iscas_campaigns for 3 s, must report \"failed\": 0 and \"correct\": true)"
result=$(cargo run --release --quiet --offline --manifest-path flowbench/Cargo.toml -- \
    --workload iscas_campaigns --seed 1 --seconds 3 --trace 0 | tail -n 1)
echo "${result}"
grep -q '"failed": 0,' <<<"${result}"
grep -q '"correct": true,' <<<"${result}"

# The only workload that spawns pool workers and runs the worst-case
# analog search.
echo "==> flowbench smoke (board_fig8_2t for 3 s, must report \"failed\": 0 and \"correct\": true)"
result=$(cargo run --release --quiet --offline --manifest-path flowbench/Cargo.toml -- \
    --workload board_fig8_2t --seed 1 --seconds 3 --trace 0 | tail -n 1)
echo "${result}"
grep -q '"failed": 0,' <<<"${result}"
grep -q '"correct": true,' <<<"${result}"

echo "==> CI passed"
