#!/usr/bin/env bash
# Public-function surface of the library crates: every `pub fn` with the
# number of files outside its crate's library source that name it, the
# first such file, and the count of those no outside file names.
#
#   bash scripts/surface_report.sh             # full table + uncalled count
#   bash scripts/surface_report.sh --check N   # also exit 1 if uncalled > N
#
# A `pub fn` is a `pub fn` / `pub const fn` line in `crates/<crate>/src/`
# (not `pub(crate)`), outside `src/bin/` and outside test-only files under
# `src/**/tests/`. "Names it" is a whole-word match, so a call, an import
# and a doc mention all count; a method named like another crate's method
# counts as called (the report errs towards keeping items public).
set -euo pipefail

cd "$(dirname "$0")/.."

check=
case "${1:-}" in
--check) check=${2:?usage: surface_report.sh [--check N]} ;;
"") ;;
*) echo "usage: surface_report.sh [--check N]" >&2 && exit 2 ;;
esac

crates=(chain chaos core crypto detect fuzz net pool sim telemetry vm)

# Allowlist of caller directories: another crate's `src/` (the bench crate's
# and the in-repo shims' included), every crate's `tests/`, `benches/` and
# `examples/`, the root package's `src/`, `tests/` and `examples/`, and
# `benchmark/src/`. A crate's own `src/bin/` counts as well: `scvm-lint`
# is the caller of `vm::SourceMap::describe_vm_error` and `scvm-fuzz` the
# caller of `fuzz::regression_test`, and neither has another.
callers=(crates src tests examples benchmark/src)

# Library source of one crate: the files whose mentions do not count.
is_own_lib() { # crate file
    case "$2" in
    "crates/$1/src/bin/"*) return 1 ;;
    "crates/$1/src/"*) return 0 ;;
    esac
    return 1
}

defs=$(mktemp)
uses=$(mktemp)
trap 'rm -f "$defs" "$uses"' EXIT

# crate <TAB> name, one line per distinct `pub fn` name of each crate.
for c in "${crates[@]}"; do
    find "crates/$c/src" -name '*.rs' -not -path "crates/$c/src/bin/*" \
        -not -path '*/src/*/tests/*' -print0 |
        xargs -0 grep -ohE '^\s*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*' |
        sed -E 's/.*fn //' | sort -u | sed "s/^/$c\t/"
done >"$defs"

# name <TAB> file, one line per file that names a defined `pub fn`.
find "${callers[@]}" -name '*.rs' -not -path '*/target/*' -print0 |
    xargs -0 grep -HowE '[A-Za-z_][A-Za-z0-9_]*' |
    awk -F: 'NR == FNR { want[$2] = 1; next }
             ($2 in want) && !seen[$2 FS $1]++ { print $2 "\t" $1 }' \
        FS='\t' "$defs" FS=: - |
    sort >"$uses"

printf '%-10s %-34s %5s  %s\n' crate 'pub fn' files 'first outside caller'
uncalled=0
declare -A per_crate=()
while IFS=$'\t' read -r c name; do
    n=0
    first=-
    while IFS=$'\t' read -r _ file; do
        is_own_lib "$c" "$file" && continue
        [ "$n" -eq 0 ] && first=$file
        n=$((n + 1))
    done < <(awk -F'\t' -v k="$name" '$1 == k' "$uses")
    printf '%-10s %-34s %5d  %s\n' "$c" "$name" "$n" "$first"
    if [ "$n" -eq 0 ]; then
        uncalled=$((uncalled + 1))
        per_crate[$c]=$((${per_crate[$c]:-0} + 1))
    fi
done <"$defs"

summary=
for c in "${crates[@]}"; do
    if [ -n "${per_crate[$c]:-}" ]; then summary+=" $c ${per_crate[$c]},"; fi
done
summary=${summary%,}
echo
echo "uncalled pub fn: $uncalled of $(wc -l <"$defs")${summary:+ (${summary# })}"
if [ -n "$check" ] && [ "$uncalled" -gt "$check" ]; then
    echo "surface budget exceeded: $uncalled uncalled pub fn > $check" >&2
    exit 1
fi
