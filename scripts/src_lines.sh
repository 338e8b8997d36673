#!/usr/bin/env bash
# Count code lines -- non-blank lines that are not wholly comment --
# in the C++ sources (.cc .hh .cpp .hpp .c .h) under each DIR, one
# "<lines> <path>" row per argument plus a total row.  A FILE
# argument counts as itself: its code lines if it is a C++ source,
# 0 otherwise, so `src/*` totals the same as `src`.  A line holding
# both code and a comment counts as code.  String and character
# literals are skipped while scanning, so a "//" or "/*" inside one
# does not open a comment.
#
# Usage: scripts/src_lines.sh PATH...
#   e.g. scripts/src_lines.sh src/fault src/fleet
#        scripts/src_lines.sh src/*
set -euo pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 PATH..." >&2
    exit 2
fi

count_path() {
    find "$1" -type f \( -name '*.cc' -o -name '*.hh' -o -name '*.cpp' \
        -o -name '*.hpp' -o -name '*.c' -o -name '*.h' \) -print0 \
        | sort -z \
        | xargs -0 -r awk '
            FNR == 1 { in_block = 0 }
            {
                code = 0
                n = length($0)
                i = 1
                while (i <= n) {
                    c = substr($0, i, 1)
                    two = substr($0, i, 2)
                    if (in_block) {
                        if (two == "*/") { in_block = 0; i += 2 }
                        else i += 1
                        continue
                    }
                    if (two == "//") break
                    if (two == "/*") { in_block = 1; i += 2; continue }
                    if (c == "\"" || c == "\047") {
                        # Skip the literal, honouring backslash escapes.
                        code = 1
                        q = c
                        i += 1
                        while (i <= n && substr($0, i, 1) != q)
                            i += (substr($0, i, 1) == "\\") ? 2 : 1
                        i += 1
                        continue
                    }
                    if (c != " " && c != "\t" && c != "\r") code = 1
                    i += 1
                }
                total += code
            }
            END { print total + 0 }' \
        | awk '{ s += $1 } END { print s + 0 }'
}

sum=0
for path in "$@"; do
    if [ ! -d "$path" ] && [ ! -f "$path" ]; then
        echo "$0: not a directory or regular file: $path" >&2
        exit 2
    fi
    lines=$(count_path "$path")
    printf '%7d %s\n' "$lines" "$path"
    sum=$((sum + lines))
done
printf '%7d total\n' "$sum"
