#!/usr/bin/env bash
# Byte-identity oracle: every paper-figure binary's stdout and results JSON,
# and every example's stdout, written under one directory, so the outputs
# of two checkouts compare with `diff -r`.
#
#   bash scripts/paper_outputs.sh OUT
#
# Builds the release profile of the checkout holding the working directory,
# then runs each program with OUT as its working directory (the figure
# binaries write `results/<name>.json` relative to it). SMARTCROWD_TRIALS
# is fixed at 4 so the seed sweeps of fig4/fig6 stay short and both sides
# of a comparison run the same trials. Exits non-zero when the build or
# any program fails.
#
# To compare with another revision, run this script from inside a checkout
# of it (a `git worktree` or a clone), e.g.
#   (cd ../base && bash "$OLDPWD/scripts/paper_outputs.sh" /tmp/base)
#   bash scripts/paper_outputs.sh /tmp/head
#   diff -r /tmp/base /tmp/head
set -euo pipefail

out=${1:?usage: paper_outputs.sh OUT}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$(git rev-parse --show-toplevel)"
root=$(pwd)
export SMARTCROWD_TRIALS=4

bins=(table1_overlap fig3_setup fig4_provider fig5_provider_balance
    fig6_detector_balance eq11_capability ablations)

cargo build --release -q -p smartcrowd-bench --bins
cargo build --release -q --examples

rm -rf "$out/results"
for bin in "${bins[@]}"; do
    echo "paper_outputs: $bin" >&2
    (cd "$out" && "$root/target/release/$bin") >"$out/$bin.txt"
done
for source in examples/*.rs; do
    example=$(basename "$source" .rs)
    echo "paper_outputs: example $example" >&2
    (cd "$out" && "$root/target/release/examples/$example") >"$out/example-$example.txt"
done
