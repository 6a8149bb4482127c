#!/usr/bin/env bash
# Regenerates results/STATUS from the committed artifact inventory below,
# so the file cannot drift from what is actually in results/: every file
# present must have a description here, and every description here must
# have its file present, or the script fails. Run from anywhere:
#
#   scripts/update_status.sh          # rewrite results/STATUS
#   scripts/update_status.sh -check   # verify only (CI-friendly), no write
#
# To add an artifact: commit the file and add a "name<TAB>description"
# line to INVENTORY. Multi-line descriptions continue on indented lines.
set -euo pipefail

cd "$(dirname "$0")/.."
STATUS=results/STATUS

# name<TAB>description, in display order. Lines starting with "+" continue
# the previous description (rendered indented under the same name).
INVENTORY=$(cat <<'EOF'
fig1_left.tsv	Figure 1 left: class concentrations vs p, single-peak ν=20 (qs-threshold).
fig1_right.tsv	Figure 1 right: same sweep on the linear landscape (qs-threshold -landscape linear).
fig2.tsv	Figure 2: matvec runtimes Smvp/Xmvp/Fmmp vs ν (qs-matvec).
fig3_cpu.tsv	Figure 3: power-iteration wall times on the serial CPU analogue (qs-solverbench).
fig4.tsv	Figure 4: parallel-device speedups vs ν (qs-speedup).
shift_study.tsv	Section 3 claim: iteration counts with/without the conservative shift (qs-solverbench -shift-study).
accuracy.tsv	Xmvp(dmax) accuracy decay vs dmax (qs-accuracy).
gap.tsv	Spectral gap of W vs p at ν=12: critical slowing down (qs-gap).
TRACE_threshold_nu14.tsv	Per-iteration convergence trace of one near-threshold solve (qs-threshold -trace).
BENCH_critical.tsv	Adaptive critical-window sweep at ν=18 crossing p_c: per-point gear,
+iterations and the selector's predicted matvecs, serial/parallel
+bit-identity, capped power baseline that fails to cross (qs-solverbench
+-critical -nu 18 -points 13). Regenerated on the 2-CPU host
+after the cost-ranked gear rule (2522 matvecs, was 6669), then after the
+partially reorthogonalized gap probe: 2367 matvecs, the 0.93·p_c
+Chebyshev→power fallback point 684 → 529, the other 12 points unchanged;
+then after the cheaper Chebyshev gear (provable lower filter edge,
+residual-sized restarts, fused epilogue): 1776 matvecs, the fallback
+point 529 → 264, still the one point above 2× its prediction; then after
+the Ritz handoff (the Chebyshev gear starts from the gap probe's top Ritz
+vector) and the Right-form check of a stalled Chebyshev iterate: 500
+matvecs, no escalation, the 0.93·p_c point Chebyshev at 55, no point
+above 2× its prediction; then after the warm, self-stopping gap probe
+(seeded from the chain's warm start, stopped once its top Ritz pair
+meets tol; new last column probe): 330 matvecs, every gear kept, the
+0.93·p_c point 55 → 61, the 1.02·p_c chain head unchanged at 40, the
+other 11 points cheaper. Regenerated at the default -workers 0
+(all cores): the parallel variant now runs 2 workers on the 2-CPU host,
+not 4; every point row is unchanged. Then after the 4-lane Dot and Norm2,
+the unnormalized Lanczos basis and the Ritz vector accepted on one
+explicit residual: 277 matvecs, every gear kept, the 0.93·p_c point
+61 → 19, the 1.02·p_c chain head unchanged at 40, every other point one
+matvec cheaper. Then after the extrapolated warm starts (each warm point
+seeded from a Lagrange fit through the chain's last three eigenvectors)
+and the 4-lane Norm1: 273 matvecs, every gear kept, no escalation, the
+0.945–0.99·p_c points 1–2 matvecs cheaper, the 1.005·p_c point 20 → 22
+and the 1.08·p_c point 19 → 20, both chain heads unchanged.
BENCH_critical.json	JSON form of BENCH_critical.tsv.
EOF
)

# Cross-check: inventory vs directory, both directions.
fail=0
inv_names=$(printf '%s\n' "$INVENTORY" | grep -v '^+' | cut -f1)
while IFS= read -r name; do
    [ -e "results/$name" ] || { echo "STATUS lists missing artifact: results/$name" >&2; fail=1; }
done <<< "$inv_names"
for path in results/*; do
    name=$(basename "$path")
    [ "$name" = STATUS ] && continue
    printf '%s\n' "$inv_names" | grep -qx "$name" || {
        echo "uncatalogued artifact: $path (add it to scripts/update_status.sh)" >&2
        fail=1
    }
done
[ "$fail" -eq 0 ] || exit 1

render() {
    printf '%s\n' \
        "Committed result artifacts, one line each (regeneration commands in" \
        "EXPERIMENTS.md and README \"Reproducing the paper's figures\")." \
        "Generated by scripts/update_status.sh — edit descriptions there, then rerun." \
        ""
    printf '%s\n' "$INVENTORY" | while IFS=$(printf '\t') read -r name desc; do
        case $name in
        +*) printf '%*s%s\n' 21 '' "${name#+}" ;;
        *)  printf '%-20s %s\n' "$name" "$desc" ;;
        esac
    done
}

if [ "${1:-}" = "-check" ]; then
    render | diff -u "$STATUS" - > /dev/null || {
        echo "results/STATUS is stale: rerun scripts/update_status.sh" >&2
        exit 1
    }
    echo "results/STATUS is current ($(printf '%s\n' "$inv_names" | wc -l) artifacts)"
else
    render > "$STATUS"
    echo "wrote $STATUS ($(printf '%s\n' "$inv_names" | wc -l) artifacts)"
fi
