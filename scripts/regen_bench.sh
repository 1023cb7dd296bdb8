#!/usr/bin/env sh
# Regenerates the two committed paper-result reports:
#
# * BENCH_workloads.json — per-class overhead and attack outcomes over the
#   workload-class corpus (exp_workloads --include-worst-case). Every class
#   registered in crates/synth/src/classes.rs is measured (native cycles,
#   ROP/2VM overhead ratios, native-vs-ROP DSE outcomes against each
#   program's point-test wrapper). The benchmark classes form the headline
#   section; the adversarial classes (`adversarial-icache`,
#   `adversarial-depth`) are reported in a separate worst_case section and
#   never averaged into headline numbers.
# * BENCH_static.json — the static attack surface over the same corpus
#   (exp_static) under NATIVE, ROP1.00, 2VM-IMPlast and both cross-layer
#   compositions: linear-sweep recall and precision against the native
#   ground truth, CFG-reconstruction success, and the abstract
#   chain-lifting stats. Every obfuscated image is produced under
#   VerifyPolicy::Static, so a dirty static audit fails the regeneration.
#
# Run from the repository root:
#   sh scripts/regen_bench.sh
#
# Changes that add a workload class, move obfuscation overhead, or change
# chain layout, gadget shapes, the opaque predicates or the VM interpreter
# should re-run this and commit the refreshed JSON. Speed is measured by
# the benchmark instead (python3 perfbench/run.py, see BENCHMARK.json).
set -eu

cd "$(dirname "$0")/.."
cargo run --release -p raindrop-bench --bin exp_workloads -- --include-worst-case
cargo run --release -p raindrop-bench --bin exp_static
echo "BENCH_workloads.json and BENCH_static.json refreshed."
