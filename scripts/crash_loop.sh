#!/usr/bin/env bash
# Kill-loop recovery check: repeatedly spawn a writer growing a durable
# chain store, SIGKILL it mid-commit, then reopen the directory and
# verify recovery. The recovered best height must never regress below
# what an earlier cycle reported durable — a kill at any instruction
# boundary may lose the in-flight block, never committed history. The
# survivor's blocks.log is then imported as a plain file: a killed
# store's log is a valid chain export, at the verified height.
#
# usage: scripts/crash_loop.sh [CYCLES] [STORE_DIR] [extra store_writer flags...]
#   STORE_WRITER  path to the store_writer binary
#                 (default target/release/store_writer)
#   SMARTCROWD    path to the smartcrowd CLI
#                 (default target/release/smartcrowd)
#
# Extra flags are passed through to every store_writer invocation, e.g.
#   scripts/crash_loop.sh 12 dir --cache 4 --snapshot-interval 2
# runs the loop on a paged store: a bounded block cache and aggressive
# checkpoint snapshots, so kills also land mid-snapshot-rewrite and
# reopens exercise the snapshot fast path / reject-and-replay fallback.

set -euo pipefail

CYCLES="${1:-10}"
DIR="${2:-target/crash-loop-store}"
BIN="${STORE_WRITER:-target/release/store_writer}"
CLI="${SMARTCROWD:-target/release/smartcrowd}"
shift $(( $# > 2 ? 2 : $# ))

if [ ! -x "$BIN" ]; then
    echo "crash_loop: writer binary not found at $BIN" >&2
    echo "crash_loop: build it with: cargo build --release --bin store_writer" >&2
    exit 2
fi
if [ ! -x "$CLI" ]; then
    echo "crash_loop: smartcrowd binary not found at $CLI" >&2
    echo "crash_loop: build it with: cargo build --release --bin smartcrowd" >&2
    exit 2
fi

rm -rf "$DIR"
last=0
for i in $(seq 1 "$CYCLES"); do
    # Far more blocks than one cycle can finish: the kill always lands
    # while commits are in flight.
    "$BIN" --dir "$DIR" --grow 100000 "$@" &
    pid=$!
    sleep 0.3
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    h=$("$BIN" --dir "$DIR" --verify "$last" "$@")
    echo "cycle $i: recovered height $h (previous floor $last)"
    last="$h"
done

# The last --verify reopened the store, so any torn tail is truncated.
imported=$("$CLI" inspect "$DIR/blocks.log" | awk '$1 == "height:" { print $2 }')
if [ "$imported" != "$last" ]; then
    echo "crash_loop: blocks.log imports at height '$imported', store verified $last" >&2
    exit 1
fi

echo "crash_loop: passed $CYCLES kill cycles, final height $last (log imports as a file)"
