#!/bin/sh
# Public-surface check.  Every value a library exports (each `val` of
# lib/*/*.mli, nested modules included) must have a caller outside its
# own module: in another module of lib/, or in bin/, bench/, perfbench/
# or examples/.  Tests do not count.  An export with no such caller is
# either unexported or deleted, or listed in bin/exports.allow with the
# reason it stays public: an oracle, a checker or a pinned counter that
# only a test reads.
#
# Usage: bin/exports.sh
#
# A caller is found by a word scan: the value's name as a whole word in
# any .ml file of those directories other than the exporting module's
# own .ml.  The scan counts words in comments and strings, and names
# that merely coincide, so it can report too many callers but never too
# few: an export it names is certainly unused outside the tests.
#
# Prints each export with no caller that is not allowlisted, and each
# allowlist line that is stale (its value is no longer exported, or it
# now has a caller), then exits 1 if it printed any.  Allowlist lines are
# `Module.value<TAB>reason`, with `Module.Sub.value` for a nested module;
# blank lines and lines starting with '#' are skipped, and a line with
# no reason, or a second line for one value, is an error too.
set -eu
cd "$(dirname "$0")/.."
export LC_ALL=C
allow=bin/exports.allow

work=$(mktemp -d "${TMPDIR:-/tmp}/exports.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

# One line per export: the own .ml, the qualified name, the bare name.
for mli in lib/*/*.mli; do
  awk -v mli="$mli" '
    BEGIN {
      own = mli; sub(/i$/, "", own)
      m = mli; sub(/.*\//, "", m); sub(/\.mli$/, "", m)
      top = toupper(substr(m, 1, 1)) substr(m, 2)
      sub_ = ""
    }
    /^module [A-Z][A-Za-z0-9_]* *: *sig/ { sub_ = $2; sub(/:.*/, "", sub_); next }
    /^end/ { sub_ = ""; next }
    /^ *val / {
      name = $0; sub(/^ *val +/, "", name); sub(/[ :].*/, "", name)
      q = (sub_ == "") ? top "." name : top "." sub_ "." name
      print own "\t" q "\t" name
    }' "$mli"
done >"$work/exports"

# One line per distinct word of each file that may call into lib/.
for f in lib/*/*.ml bin/*.ml bench/*.ml perfbench/*.ml examples/*.ml; do
  [ -f "$f" ] || continue
  grep -o -E "[A-Za-z_][A-Za-z0-9_']*" "$f" | sort -u | sed "s|^|$f	|"
done >"$work/words"

# Exports whose name occurs in no file but their own .ml.
awk -F '\t' '
  FILENAME == ARGV[1] { seen[$2] = seen[$2] SUBSEP $1; next }
  {
    n = split(seen[$3], fs, SUBSEP); used = 0
    for (i = 2; i <= n; i++) if (fs[i] != $1) { used = 1; break }
    if (!used) print $2
  }' "$work/words" "$work/exports" | sort -u >"$work/unused"
cut -f 2 "$work/exports" | sort -u >"$work/all"

grep -v -e '^#' -e '^[[:space:]]*$' "$allow" >"$work/allow" || true
awk -F '\t' 'NF < 2 || $2 ~ /^[[:space:]]*$/ { print "no reason: " $1 }' \
  "$work/allow" >"$work/report"
cut -f 1 "$work/allow" | sort >"$work/lines"
uniq -d "$work/lines" | sed 's/^/duplicate allowlist line: /' >>"$work/report"
uniq "$work/lines" >"$work/listed"
comm -23 "$work/unused" "$work/listed" |
  sed 's/^/unused: /; s/$/ has no caller outside the tests/' >>"$work/report"
comm -13 "$work/all" "$work/listed" |
  sed 's/^/stale: /; s/$/ is allowlisted but not exported/' >>"$work/report"
comm -12 "$work/all" "$work/listed" | comm -23 - "$work/unused" |
  sed 's/^/stale: /; s/$/ is allowlisted but has a caller/' >>"$work/report"

exports=$(wc -l <"$work/all")
listed=$(wc -l <"$work/listed")
if [ -s "$work/report" ]; then
  cat "$work/report"
  echo "exports: $(wc -l <"$work/report") problems in $exports exports ($listed allowlisted); see $allow"
  exit 1
fi
echo "exports: $exports exports, each with a caller outside the tests or one of $listed allowlist lines"
