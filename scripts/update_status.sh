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
BENCH_kernels.tsv	Kernel ablation baseline: blocked vs naive butterflies, pool vs spawn
+dispatch (qs-solverbench -kernels). Regenerated after the AVX2 kernel
+floor (DESIGN.md §5.6): t_blocked is a 2.85× geomean speedup over the
+previous committed baseline on the same host (per-ν 2.2–4.4×).
BENCH_kernels.json	JSON form of BENCH_kernels.tsv.
BENCH_sweep.tsv	Batched sweep engine: serial/parallel × cold/warm, bit-identity checked (qs-solverbench -sweep).
BENCH_sweep.json	JSON form of BENCH_sweep.tsv.
BENCH_critical.tsv	Adaptive critical-window sweep at ν=18 crossing p_c: per-point gear,
+iterations and the selector's predicted matvecs, serial/parallel
+bit-identity, capped power baseline that fails to cross (qs-solverbench
+-critical -nu 18 -points 13 -workers 4). Regenerated on the 2-CPU host
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
+other 11 points cheaper.
BENCH_critical.json	JSON form of BENCH_critical.tsv.
PERF_ledger.jsonl	Append-only perf ledger gated advisorily in CI (qs-perf record/check).
+Entries: the pre-AVX2 solve/critical baselines, a kernels-floor-nu14-*
+entry recording the solve workload on the AVX2 kernel floor (mutation
+phases −50%/−60% vs the pre-AVX2 singlepeak entry; `qs-perf compare`
+prints the per-phase before/after), and re-recorded singlepeak-nu14-*
+and critical-nu14-auto-w2 baselines so the share-of-wall gate measures
+against the new floor. The last critical-nu14-auto-w2 entry re-records
+the critical workload with the partially reorthogonalized gap probe
+(gap_probe 70% → 40% of wall, 1146 matvecs as under the cost-ranked gear
+rule, which had cut them from 5166) on the 2-CPU host; the entry after it
+re-records it with the cheaper Chebyshev gear (945 matvecs, wall
+0.132 → 0.122 s, Chebyshev at all 9 points); the next re-records it
+with the Ritz handoff (234 matvecs, 26 per point; wall 0.122 → 0.047 s;
+gap_probe 92% of wall); the last with the warm, self-stopping probe
+(169 matvecs; wall 0.047 → 0.041 s; gap_probe 92% of wall). Records carry
+run_id/flight_bundle when written with qs-perf record -flight
+(DESIGN.md §5.8).
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
