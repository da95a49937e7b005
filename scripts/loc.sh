#!/usr/bin/env bash
# Lines of code per crate: every `src/**/*.rs` of every package in the
# repo, counting only lines that are not blank, not `//` comments, and not
# inside a trailing `#[cfg(test)]` module (tests/, benches/ and examples/
# directories are not counted at all). ROADMAP tracks these numbers; a
# simplification PR quotes this script's output before and after.
#
# usage: scripts/loc.sh [repo-root]
#        scripts/loc.sh --max-file N dir...
#
# The second form is a gate: it prints, for every `.rs` file under the given
# directories, the number of lines (all of them: code, comments and blanks)
# before its trailing `#[cfg(test)]` module, and exits non-zero when one is
# above N. CI runs it over every crate's `src` so that no file can grow
# back into the place where everything lands.
set -euo pipefail

if [ "${1:-}" = --max-file ]; then
    max=$2
    shift 2
    find "$@" -name '*.rs' | xargs awk -v max="$max" '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n[FILENAME]++ }
        END {
            for (f in n) {
                over = n[f] > max
                printf "%6d %s%s\n", n[f], f, over ? "  <-- above " max : ""
                bad += over
            }
            exit bad > 0
        }' | sort -k2
    exit
fi

cd "${1:-$(dirname "$0")/..}"

total=0
while IFS= read -r manifest; do
    dir=$(dirname "$manifest")
    [ -d "$dir/src" ] || continue
    n=$(find "$dir/src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }')
    printf '%-28s %6d\n' "${dir#./}" "$n"
    total=$((total + n))
done < <(find . -name Cargo.toml -not -path '*/target/*' | sort)
printf '%-28s %6d\n' total "$total"
