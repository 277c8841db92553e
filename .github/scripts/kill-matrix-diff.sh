#!/usr/bin/env bash
# kill-matrix-diff.sh BASE [LISTING]
#
# Prints how the mutation kill matrix moved since commit BASE. BASE's own
# cmd/gwcheck is built in a temporary git worktree, and its `gwcheck -mutate
# -v` listing is compared with this tree's, both without their "protocol …"
# header lines: first the number of changed lines, then the unified diff.
# LISTING is this tree's listing when one was already made (CI's "Mutation
# kill matrix" step tees it to kill-matrix.txt); without it the script builds
# and runs this tree's gwcheck too. A protocol-table edit moves lines
# legitimately, so the diff is for reading: the script exits 0 whatever it
# says, and non-zero only when it cannot build BASE.
#
#   .github/scripts/kill-matrix-diff.sh HEAD~1
set -euo pipefail
base=${1:?usage: kill-matrix-diff.sh BASE [LISTING]}
tmp=$(mktemp -d)
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --quiet --detach "$tmp/base" "$base"
(cd "$tmp/base" && go build -o "$tmp/gwcheck-base" ./cmd/gwcheck)
# gwcheck exits 1 on a survivor or a skipped mutant; the listing still holds.
"$tmp/gwcheck-base" -mutate -v -budget 45s > "$tmp/base-full.txt" || true
if [ -n "${2:-}" ]; then
	cp "$2" "$tmp/new-full.txt"
else
	go build -o "$tmp/gwcheck-new" ./cmd/gwcheck
	"$tmp/gwcheck-new" -mutate -v -budget 45s > "$tmp/new-full.txt" || true
fi
grep -v '^protocol' "$tmp/base-full.txt" > "$tmp/base.txt" || true
grep -v '^protocol' "$tmp/new-full.txt" > "$tmp/new.txt" || true
diff -u --label "kill matrix at $base" --label "kill matrix here" "$tmp/base.txt" "$tmp/new.txt" > "$tmp/diff.txt" || true
changed=$(tail -n +3 "$tmp/diff.txt" | grep -c '^[-+]' || true)
echo "kill matrix: $changed changed lines against $base ($(wc -l < "$tmp/base.txt") lines there, $(wc -l < "$tmp/new.txt") here)"
cat "$tmp/diff.txt"
