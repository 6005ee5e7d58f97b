#!/usr/bin/env sh
# Rust lines per crate, one `name total outside-tests` row each (ROADMAP
# aim 2: net lines per crate is tracked). The third field is what a
# simplicity review counts: per file, the lines before the first
# `#[cfg(test)]`; a file under a `tests/` directory counts as zero. Run
# from the repository root.
set -eu
for dir in crates/* src tests benchmark/src; do
    total=$(find "$dir" -name '*.rs' -exec cat {} + | wc -l)
    code=$(find "$dir" -name '*.rs' -not -path '*/tests/*' -not -path 'tests/*' \
        -exec awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' {} + |
        awk '{ n += $1 } END { print n + 0 }')
    echo "$dir $total $code"
done
