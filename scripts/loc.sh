#!/usr/bin/env sh
# Rust lines per crate, one `name lines` row each (ROADMAP aim 2: net
# lines per crate is tracked). Run from the repository root.
set -eu
for dir in crates/* src tests benchmark/src; do
    echo "$dir $(find "$dir" -name '*.rs' -exec cat {} + | wc -l)"
done
