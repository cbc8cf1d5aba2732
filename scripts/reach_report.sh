#!/usr/bin/env bash
# Library functions that no shipped program links: every non-generic
# `smartcrowd_*` function a library rlib defines that no root's symbol
# table names, grouped by crate and module, and their count.
#
#   bash scripts/reach_report.sh             # the list + unlinked count
#   bash scripts/reach_report.sh --check N   # also exit 1 if unlinked > N
#
# Roots are what ships and what CI runs: the workspace bins, the examples,
# the `benchmark/` binary and the `vm` bench. Everything is built
# unoptimized (the per-package opt-levels of both workspaces' manifests
# are overridden to 0: at higher levels inlining hides a caller's callee)
# into a temporary target directory outside the checkout. The benchmark
# is built from a copy of `benchmark/` whose path dependencies point back
# at this checkout, so its committed `Cargo.lock` is never rewritten. The
# linker drops every function no root reaches (`--gc-sections`), so a
# function missing from all roots' `nm` is dead in every shipped program.
# Names are compared demangled, without the symbol hash, so the two
# workspaces' builds of one crate match.
#
# Blind spots. A generic function is compiled where it is instantiated,
# so one the library never instantiates itself is not listed at all, and
# one it does instantiate counts as linked when any root links any
# instance of the same path; `scripts/surface_report.sh` still covers
# generic `pub fn`s by name. Trait-impl methods and closures are not
# listed (a vtable or a caller's body reaches them).
set -euo pipefail
export LC_ALL=C # one collation for `sort` and `comm`

cd "$(dirname "$0")/.."
repo=$(pwd)

check=
case "${1:-}" in
--check) check=${2:?usage: reach_report.sh [--check N]} ;;
"") ;;
*) echo "usage: reach_report.sh [--check N]" >&2 && exit 2 ;;
esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# opt-level 0 everywhere: the root manifest pins crypto at 3 and chain and
# vm at 2, and `benchmark/` sets `[profile.dev]` 2 and `package."*"` 3 (in
# that workspace the smartcrowd crates are dependencies, which `"*"`
# reaches; in the root workspace they are members, which it does not).
# No debug info: the symbol tables are all this reads.
flags=(--offline --quiet --message-format=json
    --config profile.dev.opt-level=0 --config profile.dev.debug=false
    --config 'profile.dev.package."*".opt-level=0')
for p in smartcrowd-crypto smartcrowd-chain smartcrowd-vm; do
    flags+=(--config "profile.dev.package.$p.opt-level=0")
done

mkdir -p "$work/benchmark"
cp -r benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src "$work/benchmark/"
sed -i "s|path = \"\\.\\./crates/|path = \"$repo/crates/|" "$work/benchmark/Cargo.toml"

# Cargo's JSON messages name every artifact, fresh or rebuilt.
{
    cargo build "${flags[@]}" --target-dir "$work/ws" --workspace --bins --examples
    cargo build "${flags[@]}" --target-dir "$work/ws" -p smartcrowd-bench --bench vm
    cargo build "${flags[@]}" --target-dir "$work/bench" --manifest-path "$work/benchmark/Cargo.toml"
} >"$work/artifacts.json"

roots=$(grep -oE '"executable":"[^"]*"' "$work/artifacts.json" | cut -d'"' -f4 | sort -u)
rlibs=$(grep -oE '"filenames":\[[^]]*\]' "$work/artifacts.json" |
    grep -oE "[^\"]*/libsmartcrowd_[a-z_]+-[0-9a-f]+\\.rlib" | grep -F "$work/ws/" | sort -u)

# Demangled names of the functions an object file defines (`T` / `t`).
fns() { nm -C --defined-only "$@" 2>/dev/null | awk '$2 == "T" || $2 == "t" { sub(/^[^ ]* [Tt] /, ""); print }'; }

# shellcheck disable=SC2086
fns $rlibs | grep -E '^smartcrowd_[a-z_]+::' | grep -vF '{{' | sort -u >"$work/defined"
for r in $roots; do fns "$r"; done | sort -u >"$work/linked"
comm -23 "$work/defined" "$work/linked" >"$work/unlinked"

# One block per crate and module (the path up to the last segment).
awk '{ path = $0; sub(/::[^:]*$/, "", path); print path "\t" substr($0, length(path) + 3) }' \
    "$work/unlinked" | sort -t "$(printf '\t')" -k1,1 -k2,2 |
    awk -F '\t' '$1 != last { print (NR > 1 ? "\n" : "") $1; last = $1 } { print "    " $2 }'

unlinked=$(wc -l <"$work/unlinked")
summary=$(sed -E 's/^smartcrowd_([a-z_]+)::.*/\1/' "$work/unlinked" | uniq -c |
    awk '{ printf "%s%s %d", (NR > 1 ? ", " : ""), $2, $1 }')
echo
echo "roots: $(wc -w <<<"$roots"), library rlibs: $(wc -w <<<"$rlibs")"
echo "unlinked fn: $unlinked of $(wc -l <"$work/defined")${summary:+ ($summary)}"
if [ -n "$check" ] && [ "$unlinked" -gt "$check" ]; then
    echo "reach budget exceeded: $unlinked unlinked fn > $check" >&2
    exit 1
fi
