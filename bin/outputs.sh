#!/bin/sh
# Same-outputs check.  Reruns every command of bin/outputs.list and
# compares a digest of what it printed and wrote with the digest recorded
# for it in bin/outputs.manifest.
#
# Usage: bin/outputs.sh          check: name every command whose digest
#                                moved, and exit 1 if one did
#        bin/outputs.sh update   rewrite the manifest from this tree
#
# A command's digest is the SHA-256 of its standard output, its standard
# error, its exit status and every file it wrote under _build/outputs/,
# taken by name in sorted order.  A change that moves a digest on purpose
# reruns `update` and gives the reason for each moved line in
# EXPERIMENTS.md.  The commands take about 5 s together.
set -eu
cd "$(dirname "$0")/.."
export LC_ALL=C
list=bin/outputs.list
manifest=bin/outputs.manifest
case ${1:-check} in
  check) update=0 ;;
  update) update=1 ;;
  *) echo "usage: $0 [update]" >&2; exit 2 ;;
esac

dune build bin/bunshin_cli.exe bench/main.exe @examples/all
work=$(mktemp -d "${TMPDIR:-/tmp}/outputs.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
out=_build/outputs

# Digest of one command, given as its words.
digest() {
  case $1 in
    bench) exe=_build/default/bench/main.exe ;;
    cli) exe=_build/default/bin/bunshin_cli.exe ;;
    example) exe=_build/default/examples/$2.exe; shift ;;
    *) echo "outputs: unknown tool '$1' in $list" >&2; exit 2 ;;
  esac
  shift
  rm -rf "$out"
  mkdir -p "$out"
  status=0
  "$exe" "$@" >"$work/stdout" 2>"$work/stderr" || status=$?
  {
    cat "$work/stdout"
    echo "== stderr"
    cat "$work/stderr"
    echo "== exit $status"
    for f in "$out"/*; do
      [ -f "$f" ] || continue
      echo "== ${f#"$out"/}"
      cat "$f"
    done
  } | sha256sum | cut -d ' ' -f 1
}

grep -v -e '^#' -e '^[[:space:]]*$' "$list" >"$work/commands"
: >"$work/manifest"
moved=0
count=0
while IFS= read -r cmd; do
  # $cmd is split into words on purpose.
  # shellcheck disable=SC2086
  sum=$(digest $cmd)
  printf '%s  %s\n' "$sum" "$cmd" >>"$work/manifest"
  count=$((count + 1))
  if [ "$update" -eq 0 ]; then
    want=$(awk -v c="$cmd" 'substr($0, 67) == c { print $1 }' "$manifest")
    if [ -z "$want" ]; then
      echo "not in the manifest: $cmd"
      moved=$((moved + 1))
    elif [ "$want" != "$sum" ]; then
      echo "moved: $cmd"
      moved=$((moved + 1))
    fi
  fi
done <"$work/commands"
rm -rf "$out"

if [ "$update" -eq 1 ]; then
  cp "$work/manifest" "$manifest"
  echo "outputs: wrote $count digests to $manifest"
  exit 0
fi
if [ "$moved" -gt 0 ]; then
  echo "outputs: $moved of $count commands differ from $manifest" >&2
  exit 1
fi
echo "outputs: all $count digests match $manifest"
