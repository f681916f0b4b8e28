#!/bin/sh
# Uncalled public API, two floors; exits 1 if either finds something.
#
# 1. Uncalled: each `pub fn` under crates/*/src or src/ whose name occurs
#    nowhere in crates/, tests/, examples/, benchmark/src or src/ but in
#    its own definition.
# 2. Test-only: the same count over non-test code only — crates/*/src,
#    src/, examples/ and benchmark/src, each file up to its first
#    `#[cfg(test)]`. What it names must equal scripts/test_only_pub.txt
#    exactly: a new test-only function fails, and so does a listed one
#    that gained a real caller (strike it from the list), so the list only
#    shrinks.
#
# Whole-line `//` comments (doc comments included) are skipped, so a name
# that only a doc mentions still counts as uncalled. This is a floor, not a
# proof. A name counts as called when the same word appears anywhere else
# in code: in a trailing comment or a string, as another type's method, as
# a local. So a common name such as `ShadowDb::update` escapes it.
set -eu
cd "$(dirname "$0")/.."
export LC_ALL=C
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# `file<TAB>line` records on stdin → `file: name` for each `pub fn` defined
# under crates/*/src or src/ whose name occurs once in all the lines.
once_defined() {
    cat >"$tmp/lines"
    {
        cut -f2- "$tmp/lines" | grep -ow '[A-Za-z_][A-Za-z0-9_]*' |
            sort | uniq -c | awk '$1 == 1 { print "once", $2 }'
        grep -E '^(crates/[^/]+/src|src)/' "$tmp/lines" |
            awk -F '\t' '{
                rest = $2
                while (match(rest, /pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
                    print "def", $1, substr(rest, RSTART + 7, RLENGTH - 7)
                    rest = substr(rest, RSTART + RLENGTH)
                }
            }'
    } | awk '$1 == "once" { once[$2] = 1; next }
             $3 in once { print $2 ": " $3 }' | sort
}

status=0

find crates tests examples benchmark/src src -name '*.rs' | sort |
    xargs awk '!/^[[:space:]]*\/\// { print FILENAME "\t" $0 }' |
    once_defined >"$tmp/uncalled"
if [ -s "$tmp/uncalled" ]; then
    sed 's/^/uncalled: /' "$tmp/uncalled"
    status=1
fi

find crates/*/src src examples benchmark/src -name '*.rs' | sort |
    xargs awk 'FNR == 1 { test = 0 }
               /#\[cfg\(test\)\]/ { test = 1 }
               !test && !/^[[:space:]]*\/\// { print FILENAME "\t" $0 }' |
    once_defined >"$tmp/test_only"
sort scripts/test_only_pub.txt >"$tmp/listed"
comm -23 "$tmp/test_only" "$tmp/listed" >"$tmp/new"
comm -13 "$tmp/test_only" "$tmp/listed" >"$tmp/called"
if [ -s "$tmp/new" ]; then
    sed 's|^|test-only, not in scripts/test_only_pub.txt: |' "$tmp/new"
    status=1
fi
if [ -s "$tmp/called" ]; then
    sed 's|^|called outside tests, strike from scripts/test_only_pub.txt: |' "$tmp/called"
    status=1
fi
exit $status
