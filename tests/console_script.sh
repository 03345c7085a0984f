#!/usr/bin/env bash
# The checks of the console script `axial` on PATH, run from the repository
# root after `pip install -e .`, or with a shim for `python -m axial.cli`:
#     bash tests/console_script.sh
set -euo pipefail
root=$PWD
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/empty"

# run DIR SECONDS ARGS...: axial in DIR, each path under tests/ or fixtures/
# made absolute; code is its exit code
run() {
  local dir=$1 limit=$2 argv=() arg
  shift 2
  for arg; do case $arg in tests/* | fixtures/*) arg=$root/$arg ;; esac; argv+=("$arg"); done
  code=0
  (cd "$dir" && timeout "$limit" axial "${argv[@]}" < /dev/null) || code=$?
}

# the pinned commands: exit code, golden stdout, arguments
while read -r want golden args; do
  echo "axial $args"
  run "$work" 60 $args > "$work/stdout.txt"
  test "$code" -eq "$want"
  cmp "$work/stdout.txt" "tests/golden/$golden"
done < tests/golden/commands.txt
cmp "$work/report.json" tests/golden/classify.json

# the refusals: exit code, stderr lines, arguments; each is quick, in an
# empty directory that stays empty
while read -r want lines args; do
  echo "axial $args"
  run "$work/empty" 10 $args > /dev/null 2> "$work/err.txt"
  test "$code" -eq "$want"
  test "$(wc -l < "$work/err.txt")" -eq "$lines"
  test -z "$(ls -A "$work/empty")"
done < tests/refusals.txt

# the grading search is linear algebra over GF(2), not a search of 2^21 odd
# sets, and the 67-field V(13, 12) takes the same route
timeout 60 axial fusion vir 8 7 --json > /dev/null
timeout 60 axial fusion vir 13 12 --json > /dev/null

# stdout that cannot be written exits 2 with one stderr line and no
# traceback: a pipe closed early, where the group hands the code over in a
# file and exits 0, so the pipeline's status is head's under any options;
# and a full disk
{ run . 60 fusion vir 13 12 --json 2> "$work/pipe.txt"; echo "$code" > "$work/pipe.code"; } |
  head -c 10 > /dev/null
run . 60 fusion vir 4 3 > /dev/full 2> "$work/full.txt"
echo "$code" > "$work/full.code"
for check in pipe full; do
  test "$(cat "$work/$check.code")" -eq 2
  test "$(wc -l < "$work/$check.txt")" -eq 1
  test "$(grep -c Traceback "$work/$check.txt")" -eq 0
done
