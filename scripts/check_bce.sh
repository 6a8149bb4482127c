#!/bin/sh
# check_bce.sh — bounds-check-elimination regression lint for the kernel floor.
#
# Builds the hot-kernel packages, and internal/errorclass, whose class
# expansion writes 2^ν entries, with the SSA prover's check_bce debug pass
# and diffs the findings against the committed allowlist. Every entry in the
# allowlist is a KNOWN, amortized check: per-tile/per-row-block slice headers,
# per-stage factor loads, data-dependent gathers (Xmvp's v[i^mask]), panic
# guards, errorclass's per-tile slices and its (ν+1)-sized reduced-matrix
# loops (ReducedQ, the ϕ scaling, the class rescale) — checks that execute
# once per block, launch, tile or class, not once per element.
# The per-element inner loops of blocked.go / xmvp.go / veckernels.go /
# vec's lanes.go are written in the slice-advance idiom (constant indexes on
# a shrinking slice), and errorclass's tile fill indexes a 16-entry array
# under a mask; the go1.24 prover discharges both completely, so NO finding
# in this lint sits inside a hot element loop. fwht.go has no kernel of its
# own: FWHT runs blocked.go's stage engine, and its entries are the
# reference loop FWHTNaive, the (ν+1)-entry shift-invert spectrum and
# ApplyShiftInvert's per-weight scaling, none on a solve path.
#
# A new finding means an edit re-introduced a bounds check — rewrite the loop
# (see DESIGN.md §5.6) or, if the check is genuinely amortized, regenerate
# the allowlist:
#
#   scripts/check_bce.sh -update
#
# Exit status: 0 clean, 1 findings differ from the allowlist.
set -eu

cd "$(dirname "$0")/.."

PKGS="./internal/mutation/ ./internal/vec/ ./internal/device/ ./internal/errorclass/"
ALLOW=scripts/bce_allowlist.txt
GOFLAGS_BCE='-gcflags=-d=ssa/check_bce'

# -a defeats the build cache so the compiler actually re-emits diagnostics;
# sort -u makes the listing stable across compile orders.
current() {
	# shellcheck disable=SC2086
	go build -a $GOFLAGS_BCE $PKGS 2>&1 |
		grep -E 'Found (IsInBounds|IsSliceInBounds)' |
		sort -u
}

if [ "${1:-}" = "-update" ]; then
	current >"$ALLOW"
	echo "check_bce: wrote $(wc -l <"$ALLOW" | tr -d ' ') findings to $ALLOW"
	exit 0
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
current >"$tmp"

if cmp -s "$tmp" "$ALLOW"; then
	echo "check_bce: OK ($(wc -l <"$ALLOW" | tr -d ' ') allowlisted findings, none new)"
	exit 0
fi

echo "check_bce: bounds-check findings differ from $ALLOW" >&2
echo "unified diff, allowlist vs current findings ('+' = new check, '-' = stale entry):" >&2
diff -u --label "$ALLOW" --label "current findings" "$ALLOW" "$tmp" >&2 || true
echo "If every new finding is an amortized per-block check, run: scripts/check_bce.sh -update" >&2
exit 1
