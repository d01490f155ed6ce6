#!/bin/sh
# Public-surface check.  Every value a library exports (each `val` of
# lib/*/*.mli, nested modules included) must have a caller outside its
# own module: in another module of lib/, or in bin/, bench/, perfbench/
# or examples/.  Tests do not count.  So must every optional argument
# such a `val` declares: some code outside the tests and the module
# passes it.  An export or an optional argument without one is removed
# (an unpassed optional argument's default becomes a constant), or listed
# in bin/exports.allow with the reason it stays: an oracle, a checker or
# a pinned counter that only a test reads, a paper mechanism only tests
# demonstrate, or a caller inside the module.
#
# Usage: bin/exports.sh
#
# Both checks are word scans over the .ml files of those directories
# other than the exporting module's own .ml.  A value has a caller when
# its name occurs there as a whole word; an optional argument `?label` is
# passed when `~label` or `?label` occurs there as a word.  OCaml requires
# the label at every call site that passes an optional argument, so the
# label scan cannot miss a passer.  Both scans count words in comments
# and strings, and names that merely coincide (a label such as `?n` or
# `?config` that many functions share is passed for all of them), so they
# can report too many callers but never too few: an export or a label
# they name is certainly unused outside the tests.
#
# Prints each export with no caller and each optional argument with no
# passer that is not allowlisted, and each allowlist line that is stale
# (its value or label is no longer declared, or it now has a caller),
# then exits 1 if it printed any.  Allowlist lines are
# `Module.value<TAB>reason` for a value and `Module.value ?label<TAB>reason`
# for an optional argument, with `Module.Sub.value` for a nested module;
# blank lines and lines starting with '#' are skipped, and a line with no
# reason, or a second line for one value or label, is an error too.
set -eu
cd "$(dirname "$0")/.."
export LC_ALL=C
allow=bin/exports.allow

work=$(mktemp -d "${TMPDIR:-/tmp}/exports.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

# One line per export (the own .ml, the qualified name, the bare name) in
# $work/exports, and one per optional argument (the own .ml,
# `Module.value ?label`, the label) in $work/labels.  A `val` runs until a
# comment, a blank line or the next item; comments are not scanned.
for mli in lib/*/*.mli; do
  awk -v mli="$mli" -v labels="$work/labels" '
    BEGIN {
      own = mli; sub(/i$/, "", own)
      m = mli; sub(/.*\//, "", m); sub(/\.mli$/, "", m)
      top = toupper(substr(m, 1, 1)) substr(m, 2)
      sub_ = ""
    }
    function close_val(   t, label) {
      if (!inval) return
      t = text
      while (match(t, /\?[a-z_][A-Za-z0-9_]*:/)) {
        label = substr(t, RSTART + 1, RLENGTH - 2)
        print own "\t" q " ?" label "\t" label >>labels
        t = substr(t, RSTART + RLENGTH)
      }
      inval = 0; text = ""
    }
    /^module [A-Z][A-Za-z0-9_]* *: *sig/ { close_val(); sub_ = $2; sub(/:.*/, "", sub_); next }
    /^end/ { close_val(); sub_ = ""; next }
    /^ *(\(\*|$)/ || /^ *(type|module|exception|include|open) / { close_val() }
    /^ *val / {
      close_val()
      name = $0; sub(/^ *val +/, "", name); sub(/[ :].*/, "", name)
      q = (sub_ == "") ? top "." name : top "." sub_ "." name
      print own "\t" q "\t" name
      inval = 1
    }
    inval {
      line = $0; sub(/\(\*.*/, "", line); text = text " " line
      if ($0 ~ /\(\*/) close_val()
    }
    END { close_val() }' "$mli"
done >"$work/exports"
touch "$work/labels"

# One line per distinct word of each file that may call into lib/, and
# one per distinct label it writes (`~label` or `?label`, without the
# sigil).
for f in lib/*/*.ml bin/*.ml bench/*.ml perfbench/*.ml examples/*.ml; do
  [ -f "$f" ] || continue
  grep -o -E "[A-Za-z_][A-Za-z0-9_']*" "$f" | sort -u | sed "s|^|$f	|" >>"$work/words"
  { grep -o -E "[~?][a-z_][A-Za-z0-9_']*" "$f" || true; } | cut -c 2- | sort -u |
    sed "s|^|$f	|" >>"$work/passed"
done

# Names (field 2 of $2) whose word (field 3) occurs in no file of $1 but
# their own .ml (field 1).
unseen() {
  awk -F '\t' '
    FILENAME == ARGV[1] { seen[$2] = seen[$2] SUBSEP $1; next }
    {
      n = split(seen[$3], fs, SUBSEP); used = 0
      for (i = 2; i <= n; i++) if (fs[i] != $1) { used = 1; break }
      if (!used) print $2
    }' "$1" "$2" | sort -u
}
unseen "$work/words" "$work/exports" >"$work/unused"
unseen "$work/passed" "$work/labels" >"$work/unpassed"
cut -f 2 "$work/exports" | sort -u >"$work/all"
cut -f 2 "$work/labels" | sort -u >"$work/all_labels"

grep -v -e '^#' -e '^[[:space:]]*$' "$allow" >"$work/allow" || true
awk -F '\t' 'NF < 2 || $2 ~ /^[[:space:]]*$/ { print "no reason: " $1 }' \
  "$work/allow" >"$work/report"
cut -f 1 "$work/allow" | sort >"$work/lines"
uniq -d "$work/lines" | sed 's/^/duplicate allowlist line: /' >>"$work/report"
uniq "$work/lines" >"$work/listed"
grep -v ' ?' "$work/listed" >"$work/listed_values" || true
grep ' ?' "$work/listed" >"$work/listed_labels" || true

comm -23 "$work/unused" "$work/listed_values" |
  sed 's/^/unused: /; s/$/ has no caller outside the tests/' >>"$work/report"
comm -13 "$work/all" "$work/listed_values" |
  sed 's/^/stale: /; s/$/ is allowlisted but not exported/' >>"$work/report"
comm -12 "$work/all" "$work/listed_values" | comm -23 - "$work/unused" |
  sed 's/^/stale: /; s/$/ is allowlisted but has a caller/' >>"$work/report"
comm -23 "$work/unpassed" "$work/listed_labels" |
  sed 's/^/unpassed: /; s/$/ is passed by no code outside the tests and its module/' \
    >>"$work/report"
comm -13 "$work/all_labels" "$work/listed_labels" |
  sed 's/^/stale: /; s/$/ is allowlisted but not declared/' >>"$work/report"
comm -12 "$work/all_labels" "$work/listed_labels" | comm -23 - "$work/unpassed" |
  sed 's/^/stale: /; s/$/ is allowlisted but passed outside the tests and its module/' \
    >>"$work/report"

exports=$(wc -l <"$work/all")
labels=$(wc -l <"$work/all_labels")
listed=$(wc -l <"$work/listed")
if [ -s "$work/report" ]; then
  cat "$work/report"
  echo "exports: $(wc -l <"$work/report") problems in $exports exports and $labels optional arguments ($listed allowlisted); see $allow"
  exit 1
fi
echo "exports: $exports exports and $labels optional arguments, each with a caller outside the tests or one of $listed allowlist lines"
