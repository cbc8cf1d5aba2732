#!/usr/bin/env bash
# Byte-identity oracle: every paper-figure binary's stdout and results JSON,
# every example's stdout, `scvm-lint --json` of every `.scvm` program, two
# `scvm-fuzz` reports and a `chaos_explore` summary, written under one
# directory, so the outputs of two checkouts compare with `diff -r`.
#
#   bash scripts/paper_outputs.sh OUT
#
# Builds the release profile of the checkout holding the working directory,
# then runs each program with OUT as its working directory (the figure
# binaries write `results/<name>.json` relative to it). SMARTCROWD_TRIALS
# is fixed at 4 so the seed sweeps of fig4/fig6 stay short and both sides
# of a comparison run the same trials. Each lint file ends with the
# linter's exit status (the fixtures exit 1 by design). Exits non-zero when
# the build or any other program fails. The tools get only flags that
# older checkouts accept too, since CI runs this script in a merge-base
# checkout.
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
cargo build --release -q -p smartcrowd-vm --bin scvm-lint \
    -p smartcrowd-fuzz --bin scvm-fuzz -p smartcrowd-chaos --bin chaos_explore

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
git ls-files '*.scvm' | while read -r program; do
    echo "paper_outputs: scvm-lint $program" >&2
    lint_out="$out/lint-${program//\//_}.txt"
    status=0
    "$root/target/release/scvm-lint" --json "$program" >"$lint_out" || status=$?
    echo "exit $status" >>"$lint_out"
done
echo "paper_outputs: scvm-fuzz" >&2
"$root/target/release/scvm-fuzz" --seed 1 --execs 3000 >"$out/fuzz-seed1.txt"
"$root/target/release/scvm-fuzz" --seed 5 --execs 2000 --threads 1 >"$out/fuzz-seed5.txt"
echo "paper_outputs: chaos_explore" >&2
"$root/target/release/chaos_explore" --seeds 8 >"$out/chaos-explore.txt"
