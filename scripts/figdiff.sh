#!/usr/bin/env bash
# figdiff.sh — the divergence check for figure changes at any scale.
#
#   scripts/figdiff.sh <rev-a> <rev-b> <ids|all> <scale>
#
# Exports both revisions with `git archive`, builds cmd/experiments in
# each, regenerates the listed experiments (a comma-separated list of
# ids, or all) at the scale, and diffs every .dat and .txt. The first
# line of a .txt holds the elapsed time and is ignored. Exits non-zero
# on any difference. Example:
#
#   scripts/figdiff.sh HEAD~1 HEAD fig4,fig13 default
#   scripts/figdiff.sh main HEAD all tiny
#
# Scratch space comes from mktemp (set TMPDIR to move it) and is
# removed on exit.
set -euo pipefail

if [ $# -ne 4 ]; then
  echo "usage: $0 <rev-a> <rev-b> <ids|all> <scale>" >&2
  exit 2
fi
reva=$1 revb=$2 ids=$3 scale=$4
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run() { # run <rev> <side>: build the revision and write its outputs
  local src="$work/$2/src" out="$work/$2/out"
  mkdir -p "$src" "$out"
  git -C "$repo" archive "$1" | tar -x -C "$src"
  (cd "$src" && go build -o "$work/$2/experiments" ./cmd/experiments)
  local start=$SECONDS id
  for id in ${ids//,/ }; do
    "$work/$2/experiments" -fig "$id" -scale "$scale" -q -out "$out" >/dev/null
  done
  echo "$1: $ids at scale $scale in $((SECONDS - start)) s"
}
run "$reva" a
run "$revb" b

status=0
for f in $( (ls "$work/a/out"; ls "$work/b/out") | sort -u); do
  a="$work/a/out/$f" b="$work/b/out/$f"
  if [ ! -e "$a" ] || [ ! -e "$b" ]; then
    echo "only in one revision: $f"
    status=1
    continue
  fi
  from=1
  [[ $f == *.txt ]] && from=2
  if ! diff <(tail -n +$from "$a") <(tail -n +$from "$b") >"$work/diff"; then
    echo "differs: $f"
    head -20 "$work/diff"
    status=1
  fi
done
[ $status -eq 0 ] && echo "no difference in $(ls "$work/a/out" | wc -l) files"
exit $status
