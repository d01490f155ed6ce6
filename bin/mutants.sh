#!/bin/sh
# Mutation check of the test suite.  Each line of the catalogue
# bin/mutants.tsv names one source mutant in four tab-separated fields:
# NAME, FILE, TEXT and REPLACEMENT.  Blank lines and lines starting with
# '#' are skipped.
#
# For each mutant the script copies the tree, without _build and .git, to
# a temporary directory, replaces the one occurrence of TEXT in FILE,
# requires `dune build` to succeed there and runs `dune runtest`.  The
# mutant is killed when the suite fails.  A mutant the suite lets through
# meets a second oracle: bin/outputs.sh in the mutant's tree, which kills
# it when a digest of bin/outputs.manifest moves.  The unmutated copy is
# run through both first, so a suite or manifest that already fails
# cannot make every mutant look killed.
#
# Usage: bin/mutants.sh
#
# Prints killed or survived per mutant, with the first failing test (or
# "outputs: COMMAND" for the first command whose digest moved), then the
# kill rate per library (the directory under lib/).  Exits 1 if a
# mutant survived or an entry is malformed: not four fields, a duplicate
# name, a missing FILE, TEXT not found exactly once, or a mutant that does
# not build.  Each mutant rebuilds the tree (about 20 s), so bin/check.sh
# does not run this.
set -u
cd "$(dirname "$0")/.."
catalogue=bin/mutants.tsv

work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
entries=$work/entries
grep -v -e '^#' -e '^[[:space:]]*$' "$catalogue" >"$entries" || true
count=$(wc -l <"$entries")

field() { awk -F '\t' -v n="$1" -v k="$2" 'NR == n { print $k }' "$entries"; }

# Occurrences of $MUT_TEXT in the file.
occurrences() {
  awk 'BEGIN { t = ENVIRON["MUT_TEXT"]; n = 0 }
       { s = $0; while ((i = index(s, t)) > 0) { n++; s = substr(s, i + length(t)) } }
       END { print n }' "$1"
}

# Replace the occurrence of $MUT_TEXT by $MUT_REPL.
apply() {
  awk 'BEGIN { t = ENVIRON["MUT_TEXT"]; r = ENVIRON["MUT_REPL"] }
       { i = index($0, t); if (i > 0) $0 = substr($0, 1, i - 1) r substr($0, i + length(t)); print }' \
    "$1" >"$1.mutant" && mv "$1.mutant" "$1"
}

library() { echo "$1" | awk -F / '$1 == "lib" { print $2; next } { print $1 }'; }

# Check every entry before the first rebuild.
malformed=0
bad() { echo "malformed: entry $1: $2"; malformed=$((malformed + 1)); }
awk -F '\t' 'NF != 4 { print NR ": " NF " fields, want 4" }
             $1 == "" || $3 == "" { print NR ": empty name or text" }
             $3 == $4 { print NR ": replacement equals text" }
             seen[$1]++ { print NR ": duplicate name " $1 }' "$entries" |
  while read -r msg; do echo "malformed: entry $msg"; done >"$work/checks"
if [ -s "$work/checks" ]; then cat "$work/checks"; exit 1; fi
n=1
while [ "$n" -le "$count" ]; do
  file=$(field "$n" 2)
  if [ ! -f "$file" ]; then
    bad "$n" "no file $file"
  else
    found=$(MUT_TEXT=$(field "$n" 3) occurrences "$file")
    [ "$found" -eq 1 ] || bad "$n" "text occurs $found times in $file"
  fi
  n=$((n + 1))
done
[ "$malformed" -eq 0 ] || exit 1

copy_tree() {
  rm -rf "$work/tree"
  mkdir "$work/tree"
  tar -cf - --exclude=./_build --exclude=./.git . | tar -xf - -C "$work/tree"
}

echo "== unmutated tree"
copy_tree
if ! (dune build --root "$work/tree" && dune runtest --root "$work/tree" &&
  "$work/tree/bin/outputs.sh") >"$work/log" 2>&1; then
  tail -20 "$work/log"
  echo "mutants: the unmutated suite or manifest fails; no mutant can be judged" >&2
  exit 1
fi

echo "== $count mutants from $catalogue"
survivors=0
: >"$work/results"
n=1
while [ "$n" -le "$count" ]; do
  name=$(field "$n" 1)
  file=$(field "$n" 2)
  copy_tree
  MUT_TEXT=$(field "$n" 3) MUT_REPL=$(field "$n" 4) apply "$work/tree/$file"
  if ! dune build --root "$work/tree" >"$work/log" 2>&1; then
    head -20 "$work/log"
    bad "$n" "$name does not build"
    verdict=unbuilt
  elif dune runtest --root "$work/tree" >"$work/log" 2>&1 &&
    "$work/tree/bin/outputs.sh" >"$work/log" 2>&1; then
    verdict=survived
    survivors=$((survivors + 1))
  else
    verdict=killed
  fi
  # Alcotest marks a failed case "[FAIL]"; the golden runners print "FAIL";
  # the manifest check names each moved command "moved: ".
  first=
  [ "$verdict" = killed ] &&
    first=$(grep -m 1 -e '\[FAIL\]' -e '^FAIL ' -e '^moved: ' "$work/log" |
      sed -e 's/.*\[FAIL\] *//' -e 's/^FAIL //' -e 's/^moved: /outputs: /' | tr -s ' ')
  printf '%-9s %-34s %s\n' "$verdict" "$name" "$first"
  echo "$(library "$file") $verdict" >>"$work/results"
  n=$((n + 1))
done

echo "== kill rate per library"
awk '{ total[$1]++; if ($2 == "killed") killed[$1]++ }
     END { for (l in total) printf "%-12s %d/%d\n", l, killed[l], total[l] }' \
  "$work/results" | sort

if [ "$survivors" -gt 0 ] || [ "$malformed" -ne 0 ]; then
  echo "== $survivors survived, malformed entries: $malformed"
  exit 1
fi
echo "== all $count mutants killed"
