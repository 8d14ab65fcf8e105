#!/usr/bin/env sh
# Lines of production code, per crate and in total. Counts every `.rs`
# file under the root facade's `src/` and each `crates/*/src/`:
#
#   non-test  lines before a file's first column-0 `#[cfg(test)]`
#   code      those lines that are neither blank nor `//` comments
#
# Integration tests, benches and examples live outside `src/` and are
# not counted. POSIX sh and awk only.
#
#   sh scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

files=$(find src crates/*/src -name '*.rs' -type f | sort)

printf '%-14s %9s %9s\n' crate non-test code
# Word splitting of $files is intended: workspace paths hold no spaces.
# shellcheck disable=SC2086
awk '
FNR == 1 {
    n = split(FILENAME, part, "/")
    crate = (part[1] == "crates") ? part[2] : "(root)"
    in_test = 0
    seen[crate] = 1
}
/^#\[cfg\(test\)\]/ { in_test = 1 }
in_test { next }
{
    lines[crate]++
    text = $0
    sub(/^[ \t]+/, "", text)
    if (text != "" && text !~ /^\/\//) code[crate]++
}
END {
    for (c in seen) printf "%s %d %d\n", c, lines[c], code[c]
}
' $files | sort | awk '
{
    printf "%-14s %9d %9d\n", $1, $2, $3
    total_lines += $2
    total_code += $3
}
END { printf "%-14s %9d %9d\n", "total", total_lines, total_code }
'
