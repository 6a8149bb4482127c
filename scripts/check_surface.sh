#!/bin/sh
# check_surface.sh — lint that keeps the test-only exported surface of
# internal/ from growing back.
#
# Lists every exported identifier declared in a non-test file under
# internal/ (functions, methods, types, and package-level constants and
# variables) that no non-test Go file outside bench/ references, and diffs
# that list against the committed allowlist, the way check_bce.sh does.
# An identifier counts as referenced when its name occurs, outside comments
# and string literals, more often than it is declared; the match is by name
# alone, so a name that another declaration or a local shares escapes the
# lint. The allowlist holds only names DESIGN.md §7.1 accounts for: named
# oracles, the test controls, the names bench/ calls, and methods that
# satisfy an interface (MarshalJSON, Unwrap, ...).
#
# A new finding means an exported name lost its last production caller, or
# arrived without one: delete it, move it into the _test.go file of the one
# package that uses it, or, if a test uses it as the reference for a
# production path, list it in DESIGN.md §7.1 and regenerate the allowlist:
#
#   scripts/check_surface.sh -update
#
# Exit status: 0 clean, 1 findings differ from the allowlist.
set -eu

cd "$(dirname "$0")/.."

ALLOW=scripts/surface_allowlist.txt

current() {
	files=$(find . -path ./bench -prune -o -path './.*' -prune -o \
		-name '*.go' ! -name '*_test.go' -print | sort)
	dir=$(mktemp -d)
	# Declarations: "<package dir> <key> <name>", the key naming a method
	# as Type.Method.
	# shellcheck disable=SC2086
	awk '
	FNR == 1 { blk = 0; pkg = FILENAME; sub(/^\.\//, "", pkg); sub(/\/[^\/]*$/, "", pkg) }
	blk && /^\)/ { blk = 0; next }
	blk && /^\t[A-Z][A-Za-z0-9_]*/ { n = $1; sub(/[^A-Za-z0-9_].*/, "", n); print pkg, n, n; next }
	/^(const|var|type) \($/ { blk = 1; next }
	/^(const|var|type) [A-Z]/ { n = $2; sub(/[^A-Za-z0-9_].*/, "", n); print pkg, n, n; next }
	/^func [A-Z]/ { n = $2; sub(/[(\[].*/, "", n); print pkg, n, n; next }
	/^func \(/ {
		s = $0; sub(/^func \([^)]*\) /, "", s)
		if (s !~ /^[A-Z]/) next
		n = s; sub(/[(\[].*/, "", n)
		r = $0; sub(/^func \(/, "", r); sub(/^[A-Za-z0-9_]+ /, "", r); sub(/^\*/, "", r); sub(/[)\[].*/, "", r)
		print pkg, r "." n, n
	}' $files >"$dir/decls"
	# Word counts with comments, string literals and method receivers
	# stripped, so neither a doc comment nor a receiver is a reference.
	# shellcheck disable=SC2086
	sed -E -e 's://.*$::' -e 's/`[^`]*`//g' -e 's/"([^"\\]|\\.)*"//g' \
		-e 's/^func \([^)]*\)/func /' $files |
		tr -cs 'A-Za-z0-9_' '\n' | sort | uniq -c | awk '{ print $2, $1 }' >"$dir/words"
	awk '{ print $3 }' "$dir/decls" | sort | uniq -c | awk '{ print $2, $1 }' >"$dir/ndecl"
	awk -v words="$dir/words" -v ndecl="$dir/ndecl" '
	BEGIN {
		while ((getline l < words) > 0) { split(l, f, " "); w[f[1]] = f[2] }
		while ((getline l < ndecl) > 0) { split(l, f, " "); d[f[1]] = f[2] }
	}
	$1 ~ /^internal\// && w[$3] + 0 <= d[$3] + 0 { print $1 "." $2 }' "$dir/decls" | sort -u
	rm -r "$dir"
}

if [ "${1:-}" = "-update" ]; then
	current >"$ALLOW"
	echo "check_surface: wrote $(wc -l <"$ALLOW" | tr -d ' ') names to $ALLOW"
	exit 0
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
current >"$tmp"

if cmp -s "$tmp" "$ALLOW"; then
	echo "check_surface: OK ($(wc -l <"$ALLOW" | tr -d ' ') allowlisted test-only names, none new)"
	exit 0
fi

echo "check_surface: test-only exported names differ from $ALLOW" >&2
echo "unified diff, allowlist vs current ('+' = name with no production reference, '-' = stale entry):" >&2
diff -u --label "$ALLOW" --label "current" "$ALLOW" "$tmp" >&2 || true
echo "Delete the name, move it into its package's _test.go, or list it in DESIGN.md §7.1 and run: scripts/check_surface.sh -update" >&2
exit 1
