#!/bin/sh
# Uncalled public API: name each `pub fn` under crates/*/src or src/ whose
# name occurs nowhere in crates/, tests/, examples/, benchmark/src or src/
# but in its own definition, and exit 1 if there is one. Whole-line `//`
# comments (doc comments included) are skipped, so a name that only a doc
# mentions still counts as uncalled.
#
# This is a floor, not a proof. A name counts as called when the same word
# appears anywhere else in code: in a trailing comment or a string, as
# another type's method, as a local. So a common name such as
# `ShadowDb::update` escapes it.
set -eu
cd "$(dirname "$0")/.."
{
    grep -rhv --include='*.rs' '^[[:space:]]*//' crates tests examples benchmark/src src |
        grep -ow '[A-Za-z_][A-Za-z0-9_]*' |
        sort | uniq -c | awk '$1 == 1 { print "once", $2 }'
    grep -rnoE --include='*.rs' 'pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src src | sed 's/^/def /'
} | awk '$1 == "once" { once[$2] = 1; next }
         $NF in once { print "uncalled: " substr($0, 5); found = 1 }
         END { exit found }'
