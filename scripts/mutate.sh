#!/bin/sh
# mutate.sh — mutation check of the tests named in scripts/mutants.txt.
#
# For every mutant (file, old text, new text, package, -run pattern; see the
# list's header) it first requires the package's matching tests to pass on
# the tree as it is, then writes the mutated file to a temporary directory
# and runs the same tests through `go test -overlay`, which must compile
# and fail. The tree itself is never modified. Exits non-zero if the tree
# fails, a mutant does not apply or compile, or a mutant survives.
# Self-contained POSIX sh + sed.
#
# Usage:
#   ./scripts/mutate.sh [mutants.txt]
set -u

list="${1:-scripts/mutants.txt}"
root=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tab=$(printf '\t')
status=0
n=0

# sedquote escapes $1 for a sed pattern, sedrepl for a replacement.
sedquote() { printf '%s' "$1" | sed 's/[][\.*^$/]/\\&/g'; }
sedrepl() { printf '%s' "$1" | sed 's/[\/&]/\\&/g'; }

while IFS="$tab" read -r file old new pkg run; do
    case "$file" in '' | '#'*) continue ;; esac
    n=$((n + 1))
    label="mutant $n ($file: $old)"
    if ! go test -count=1 -run "$run" "$pkg" > "$work/out" 2>&1; then
        echo "FAIL $label: the unmutated tree fails $pkg -run '$run'"
        cat "$work/out"
        status=1
        continue
    fi
    hits=$(grep -cF -- "$old" "$file")
    if [ "$hits" != 1 ]; then
        echo "FAIL $label: old text found on $hits lines, want 1"
        status=1
        continue
    fi
    sed "s/$(sedquote "$old")/$(sedrepl "$new")/" "$file" > "$work/mutant.go"
    printf '{"Replace": {"%s/%s": "%s/mutant.go"}}\n' "$root" "$file" "$work" > "$work/overlay.json"
    if ! go test -overlay "$work/overlay.json" -count=1 -run '^$' "$pkg" > "$work/out" 2>&1; then
        echo "FAIL $label: the mutant does not compile"
        cat "$work/out"
        status=1
        continue
    fi
    if go test -overlay "$work/overlay.json" -count=1 -run "$run" "$pkg" > "$work/out" 2>&1; then
        echo "FAIL $label: survived $pkg -run '$run'"
        status=1
        continue
    fi
    echo "ok   $label: killed by $pkg -run '$run'"
done < "$list"

if [ "$n" = 0 ]; then
    echo "no mutants in $list"
    exit 1
fi
exit "$status"
