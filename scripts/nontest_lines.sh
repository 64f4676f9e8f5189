#!/bin/sh
# Prints the non-test line count of each crate's `src` directory: for
# every .rs file, the lines before its first `#[cfg(test)]` (the whole
# file when it has none). Run from anywhere inside the repository:
#
#   scripts/nontest_lines.sh            # every crate
#   scripts/nontest_lines.sh core routing
set -eu
cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi
total=0
for crate in "$@"; do
    dir="crates/$crate/src"
    [ -d "$dir" ] || { echo "no such crate: $crate" >&2; exit 1; }
    n=$(find "$dir" -name '*.rs' | sort | while read -r f; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
    done | awk '{ s += $1 } END { print s + 0 }')
    printf '%6d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%6d  total\n' "$total"
