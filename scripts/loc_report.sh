#!/usr/bin/env bash
# Non-test Rust lines per changed file, at a base ref and in the checkout.
#
#   bash scripts/loc_report.sh <base-ref>
#
# "Non-test" is what ships in the library or binary: a file's lines up to
# its first top-level `#[cfg(test)]` (test modules sit at the end of a file
# in this repo), and nothing under a `tests/` or `benches/` directory.
# Blank and comment lines count. Files are the `*.rs` paths that differ
# between <base-ref> and the checkout (deleted files count 0 after; a moved
# file counts as deleted at its old path and new at its new one).
#
# Below the table: the uncalled `pub fn` count of scripts/surface_report.sh
# and the unlinked-function count of scripts/reach_report.sh at <base-ref>
# and in the checkout (the checkout's scripts run on both; the second
# builds both trees, about a minute each).
set -euo pipefail

base=${1:?usage: loc_report.sh <base-ref>}
cd "$(git rev-parse --show-toplevel)"

count() { awk '/^#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n + 0 }'; }

printf '%7s %7s %7s  %s\n' base head delta file
total_base=0
total_head=0
while IFS= read -r file; do
    case "/$file" in */tests/* | */benches/*) continue ;; esac
    before=$({ git show "$base:$file" 2>/dev/null || true; } | count) # 0 for a new file
    after=0
    [ -f "$file" ] && after=$(count <"$file")
    printf '%7d %7d %+7d  %s\n' "$before" "$after" $((after - before)) "$file"
    total_base=$((total_base + before))
    total_head=$((total_head + after))
done < <(git diff --no-renames --name-only "$base" -- '*.rs')
printf '%7d %7d %+7d  %s\n' "$total_base" "$total_head" $((total_head - total_base)) total

base_tree=$(mktemp -d)
trap 'rm -rf "$base_tree"' EXIT
git archive "$base" | tar -x -C "$base_tree"
mkdir -p "$base_tree/scripts"
cp scripts/surface_report.sh scripts/reach_report.sh "$base_tree/scripts/"
uncalled() { bash "$1/scripts/surface_report.sh" | sed -nE 's/^uncalled pub fn: ([0-9]+) .*/\1/p'; }
unlinked() { bash "$1/scripts/reach_report.sh" | sed -nE 's/^unlinked fn: ([0-9]+) .*/\1/p'; }
echo
echo "uncalled pub fn: $(uncalled "$base_tree") base, $(uncalled .) head"
echo "unlinked fn: $(unlinked "$base_tree") base, $(unlinked .) head"
