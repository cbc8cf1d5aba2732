#!/usr/bin/env bash
# Check every relative markdown link in the repo's *.md files and fail on
# dangling targets. External links (http/https/mailto) and pure in-page
# anchors (#…) are skipped; a `path#anchor` link is checked for the path
# only. Also fail when a backticked path ending in `.rs` (`storage/disk.rs`,
# `fork_choice_model.rs`) is not the tail of some source file's path, so a
# doc never names a file that is gone. Root-level docs that README.md does
# not link (the change log, the roadmap, working notes) record history and
# plans, so their `.rs` paths are not checked.
# Run from the repository root: bash scripts/check_doc_links.sh
set -euo pipefail

fail=0
sources=$(find . -name '*.rs' -not -path '*/target/*' -not -path './.git/*' | sed 's|^\./||')
readme_links=$(grep -oE '\]\([^)#]+' README.md | sed -E 's/^\]\(//; s/[[:space:]]+"[^"]*"$//')
while IFS= read -r file; do
    dir=$(dirname "$file")
    # Inline links: [text](target). Markdown titles ("...") are stripped.
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:* | "#"*) continue ;;
        esac
        path=${target%%#*}
        [ -z "$path" ] && continue
        if [ ! -e "$dir/$path" ]; then
            echo "dangling link in $file: ($target)"
            fail=1
        fi
    done < <(grep -oE '\]\([^)]+\)' "$file" |
        sed -E 's/^\]\(//; s/\)$//; s/[[:space:]]+"[^"]*"$//')
    name=$(basename "$file")
    if [ "$dir" = "." ] && [ "$name" != README.md ] &&
        ! grep -qxF "$name" <<<"$readme_links"; then
        continue
    fi
    while IFS= read -r path; do
        if ! grep -qxF "$path" <<<"$sources" &&
            ! grep -qE "/${path//./\\.}\$" <<<"$sources"; then
            echo "missing source file in $file: \`$path\`"
            fail=1
        fi
    done < <(grep -oE '`[A-Za-z0-9_./-]+\.rs`' "$file" | tr -d '`' | sort -u)
done < <(find . -name '*.md' -not -path './target/*' -not -path './.git/*')

if [ "$fail" -ne 0 ]; then
    echo "docs link check failed"
    exit 1
fi
echo "docs link check passed"
