#!/usr/bin/env bash
# Non-test Rust lines per crate, or per file under one directory.
#
#   scripts/nontest_lines.sh [<rev>] [<dir>]
#
# A file's non-test lines are those before its first `#[cfg(test)]`
# (all of them if it has none). Files under `tests/`, `benches/`,
# `benchmark/` and `vendor/` are left out, and so is a module whose
# `mod` line is gated by `#[cfg(test)]` (its file and any files under
# its directory). With `<rev>` the files are
# read from that commit, without it from the working tree (tracked and
# untracked, ignored files left out). Without `<dir>` it prints one line
# per crate (`root` for the top-level package) and the total; with
# `<dir>` (e.g. `crates/core`) one line per file under it and the total.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

rev=""
dir=""
for arg in "$@"; do
    if [ -z "$dir" ] && [ -d "$arg" ] && ! git rev-parse --verify -q "$arg^{commit}" >/dev/null; then
        dir="${arg%/}"
    elif [ -z "$rev" ]; then
        rev="$arg"
    else
        echo "usage: $0 [<rev>] [<dir>]" >&2
        exit 2
    fi
done

if [ -n "$rev" ]; then
    git rev-parse --verify -q "$rev^{commit}" >/dev/null || {
        echo "$0: not a revision: $rev" >&2
        exit 2
    }
    files=$(git ls-tree -r --name-only "$rev" | grep '\.rs$' || true)
    read_file() { git show "$rev:$1"; }
else
    files=$(git ls-files --cached --others --exclude-standard -- '*.rs')
    read_file() { cat "$1"; }
fi

files=$(printf '%s\n' "$files" | grep -Ev '(^|/)(tests|benches)/|^(benchmark|vendor)/' || true)
# Test-only modules: `name` in `mod name;` right after `#[cfg(test)]`
# (other attributes may sit between), resolved against the declaring
# file — `dir/name.rs` and `dir/name/` beside a lib.rs, main.rs or
# mod.rs, `stem/name.rs` and `stem/name/` under any other file.
gated=$(for f in $files; do
    [ -n "$rev" ] || [ -f "$f" ] || continue
    case "$f" in
        */lib.rs | */main.rs | */mod.rs) base=$(dirname "$f") ;;
        *) base=${f%.rs} ;;
    esac
    read_file "$f" | awk -v dir="$base" '
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { g = 1; next }
        g && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/ {
            s = $0; sub(/^.*mod[[:space:]]+/, "", s); sub(/[[:space:]]*;.*$/, "", s)
            print dir "/" s ".rs"; print dir "/" s "/"
        }
        /^[[:space:]]*#\[/ { next }
        { g = 0 }'
done)
is_gated() {
    local g
    for g in $gated; do
        case "$g" in
            */) [[ "$1" == "$g"* ]] && return 0 ;;
            *) [ "$1" = "$g" ] && return 0 ;;
        esac
    done
    return 1
}

if [ -n "$dir" ]; then
    files=$(printf '%s\n' "$files" | grep -E "^$dir/" || true)
fi

for f in $files; do
    [ -n "$rev" ] || [ -f "$f" ] || continue
    is_gated "$f" && continue
    n=$(read_file "$f" | awk '/#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }')
    if [ -n "$dir" ]; then
        key="$f"
    else
        case "$f" in
            crates/*) key=$(echo "$f" | cut -d/ -f2) ;;
            *) key=root ;;
        esac
    fi
    printf '%s %s\n' "$key" "$n"
done | awk '{ sum[$1] += $2; total += $2 } END { for (k in sum) printf "%-48s %6d\n", k, sum[k]; printf "%-48s %6d\n", "total", total }' \
    | sort -k1,1 | awk '$1 != "total" { print } $1 == "total" { t = $0 } END { print t }'
