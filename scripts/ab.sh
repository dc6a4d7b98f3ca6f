#!/usr/bin/env bash
# A/B dvmbench between a parent commit and this checkout, judged the way
# the pipeline judges a PR (choosing-metrics §6 and §8): alternating pairs
# of deployed runs (`--trace 0`), one seed per pair, each side's median
# and quartiles, and per (workload, end-to-end metric) one of
#
#   ok          the change's median is no worse than the parent's by more
#               than the metric's `bound` in BENCHMARK.json;
#   WORSE       it is;
#   UNRESOLVED  it is not, but the parent's own runs spread (q3 - q1) wider
#               than the bound and some parent run reads better than some
#               change run: the pairs cannot tell "unchanged" from "worse".
#
#   scripts/ab.sh <parent> [--pairs N] [--workload W]... [--claim M@W]... [--layers]
#
# `--claim metric@workload` states a gain: it holds only if the change
# wins at least 9/10 of the pairs on that cell (a tie is not a win) and the
# medians differ, in the better direction, by more than the distance
# between the parent's quartiles. Default: 3 pairs x the 4 workloads
# (~15 min); a claim wants `--pairs 10 --workload <the claimed one>`.
#
# `--layers` then runs one traced pair (`--trace 1`) per workload, parent
# and change in alternating order, and prints each side's median of a few
# per-layer metrics next to each other - makesafe/log append, Lemma-3
# compose, propagate, refresh and the MV write-lock hold - so a change can
# show which layer moved. That table is not judged and never fails the run.
#
# <parent> is a git ref, checked out into a temporary `git worktree`, or a
# directory that already holds the parent's tree (a `git clone` at the
# parent commit, for sessions that may not create worktrees). Either way
# it is built into a target directory of its own. Never share a target
# directory between two source trees: when mtimes line up cargo links the
# other tree's stale rlibs without a word, and both sides measure the same
# code.
#
# Exits non-zero on a WORSE row, a claim that does not hold, or a run that
# fails or does not print `correct true`. UNRESOLVED rows are printed last.
# Minutes long - not part of scripts/ci.sh.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() { echo "usage: $0 <parent-ref|parent-dir> [--pairs N] [--workload W]... [--claim metric@workload]... [--layers]" >&2; exit 2; }
[ $# -ge 1 ] || usage
ref="$1"; shift
pairs=3
workloads=()
claims=()
layers=0
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --claim) claims+=("$2"); shift 2 ;;
        --layers) layers=1; shift ;;
        *) usage ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(stream_sla ingest_sat bulk_refresh readers_fleet)

tmp="$(mktemp -d)"
if [ -d "$ref" ]; then
    parent="$(cd "$ref" && pwd)"
    cleanup() { rm -rf "$tmp"; }
else
    parent="$tmp/parent"
    cleanup() {
        git -C "$root" worktree remove --force "$parent" >/dev/null 2>&1 || true
        rm -rf "$tmp"
    }
    git -C "$root" worktree add --detach "$parent" "$ref" >/dev/null
fi
trap cleanup EXIT
echo "# parent $(git -C "$parent" rev-parse --short HEAD) vs change $(git -C "$root" rev-parse --short HEAD)+worktree, $pairs pairs x ${workloads[*]}"

# side -> checkout and target directory (one per source tree).
tree_of() { if [ "$1" = parent ]; then echo "$parent"; else echo "$root"; fi; }
target_of() { if [ "$1" = parent ]; then echo "$tmp/target-parent"; else echo "$root/benchmark/target"; fi; }
for side in parent change; do
    echo "# building $side" >&2
    CARGO_TARGET_DIR="$(target_of "$side")" cargo build --release --offline --quiet \
        --manifest-path "$(tree_of "$side")/benchmark/Cargo.toml"
done

samples="$tmp/samples"   # lines: workload metric side value
failed=0
run_side() {             # side workload seed [trace [samples file]]
    local out="$tmp/run.out"
    if ! CARGO_TARGET_DIR="$(target_of "$1")" bash "$(tree_of "$1")/benchmark/run.sh" \
            --workload "$2" --seed "$3" --trace "${4:-0}" >"$out" 2>"$tmp/run.err"; then
        echo "FAIL: $1 $2 seed $3 exited non-zero" >&2
        tail -5 "$tmp/run.err" >&2
        failed=1
    fi
    if ! grep -q 'correct true' "$out"; then
        echo "FAIL: $1 $2 seed $3 did not print 'correct true'" >&2
        failed=1
    fi
    # Metric lines read `name unit value  # how it was taken`.
    awk -v w="$2" -v s="$1" '/^[a-z0-9_.]+ [^ ]+ [-0-9.eE+]+( |$)/ { print w, $1, s, $3 }' "$out" >>"${5:-$samples}"
}
for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "# $workload pair $pair/$pairs: $side" >&2
            run_side "$side" "$workload" "$pair"
        done
    done
done
layer_samples="$tmp/layer_samples"
: >"$layer_samples"
if [ "$layers" = 1 ]; then
    flip=0
    for workload in "${workloads[@]}"; do
        if [ "$flip" = 0 ]; then order=(parent change); else order=(change parent); fi
        flip=$((1 - flip))
        for side in "${order[@]}"; do
            echo "# $workload traced: $side" >&2
            run_side "$side" "$workload" 1 1 "$layer_samples"
        done
    done
fi

# Samples of one (workload, metric, side), in pair order.
of() { awk -v w="$1" -v m="$2" -v s="$3" '$1 == w && $2 == m && $3 == s { print $4 }' "$samples"; }

# One cell, judged: reads `parent change` sample pairs (pair order) and
# prints `p_q1 p_med p_q3 c_q1 c_med c_q3 ratio worse% wins/pairs verdict
# claim`, where claim is `held`/`FAILED` under --claim and `-` otherwise.
judge() {                # better bound claimed(0|1)
    awk -v better="$1" -v bound="$2" -v claimed="$3" '
        function quantile(v, n, q,    h, lo) {   # linear interpolation between order statistics
            h = (n - 1) * q + 1; lo = int(h)
            return (lo >= n) ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
        }
        { n++; p[n] = $1; c[n] = $2; if (better == "lower" ? $2 < $1 : $2 > $1) wins++ }
        END {
            sorted(p, ps, n); sorted(c, cs, n)
            pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
            p1 = quantile(ps, n, 0.25); p3 = quantile(ps, n, 0.75)
            c1 = quantile(cs, n, 0.25); c3 = quantile(cs, n, 0.75)
            gain = (better == "lower") ? pm - cm : cm - pm
            worse = -gain / pm
            # Every change run better than every parent run?
            sweep = (better == "lower") ? cs[n] < ps[1] : cs[1] > ps[n]
            verdict = "ok"
            if (worse > bound) verdict = "WORSE"
            else if ((p3 - p1) / pm > bound && !sweep) verdict = "UNRESOLVED"
            claim = "-"
            if (claimed) claim = (10 * wins >= 9 * n && gain > p3 - p1) ? "held" : "FAILED"
            printf "%.6g %.6g %.6g %.6g %.6g %.6g %.3f %+.1f%% %d/%d %s %s\n", \
                p1, pm, p3, c1, cm, c3, cm / pm, 100 * worse, wins, n, verdict, claim
        }'
}

row='%-14s %-16s %11s %11s %11s %11s %11s %11s %7s %8s %5s %6s  %s\n'
# BENCHMARK.json states one end-to-end metric per line: name, better, bound.
sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" \
    | sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' >"$tmp/bounds"
: >"$tmp/rows"; : >"$tmp/unresolved"; : >"$tmp/claims"
for workload in "${workloads[@]}"; do
    while read -r metric better bound; do
        claimed=0
        for claim in ${claims[@]+"${claims[@]}"}; do
            [ "$claim" = "$metric@$workload" ] && claimed=1
        done
        paste -d' ' <(of "$workload" "$metric" parent) <(of "$workload" "$metric" change) >"$tmp/cell"
        if ! [ -s "$tmp/cell" ] || grep -qv '^[^ ]\+ [^ ]\+$' "$tmp/cell"; then
            printf "$row" "$workload" "$metric" - - - - - - - - "$bound" - MISSING >>"$tmp/rows"
            failed=1
            continue
        fi
        read -r p1 pm p3 c1 cm c3 ratio worse wins verdict held <<<"$(judge "$better" "$bound" "$claimed" <"$tmp/cell")"
        [ "$verdict" = UNRESOLVED ] && dest="$tmp/unresolved" || dest="$tmp/rows"
        printf "$row" "$workload" "$metric" "$p1" "$pm" "$p3" "$c1" "$cm" "$c3" "$ratio" "$worse" "$bound" "$wins" "$verdict" >>"$dest"
        [ "$verdict" = WORSE ] && failed=1
        if [ "$claimed" = 1 ]; then
            echo "claim $metric@$workload: $held (wins $wins, need 9/10; medians $pm -> $cm, parent quartiles $p1..$p3)" >>"$tmp/claims"
            [ "$held" = held ] || failed=1
        fi
    done <"$tmp/bounds"
done
for claim in ${claims[@]+"${claims[@]}"}; do
    if ! grep -q "^claim $claim:" "$tmp/claims"; then
        echo "claim $claim: FAILED (no such end-to-end metric on a workload that ran)" >>"$tmp/claims"
        failed=1
    fi
done

echo
printf "$row" workload metric parent.q1 parent.med parent.q3 change.q1 change.med change.q3 ratio worse bound wins verdict
cat "$tmp/rows" "$tmp/unresolved"
cat "$tmp/claims"
echo "# ratio = change / parent of the medians; worse = by how much the change's median is on the wrong side (negative: better); wins = pairs the change won"
echo "# UNRESOLVED = within the bound on medians, but the parent's quartiles are further apart than the bound and the runs overlap: run more pairs or read the per-layer cells"

if [ "$layers" = 1 ]; then
    median() { sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) print "-"; else printf "%.6g\n", (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
    echo
    layer_row='%-14s %-26s %12s %12s %7s\n'
    printf "$layer_row" workload "layer (--trace 1)" parent.med change.med ratio
    for workload in "${workloads[@]}"; do
        for metric in core.makesafe_us_per_tx delta.compose_us core.propagate_p50_us core.refresh_p50_us core.mv_write_hold_us; do
            pm="$(awk -v w="$workload" -v m="$metric" '$1 == w && $2 == m && $3 == "parent" { print $4 }' "$layer_samples" | median)"
            cm="$(awk -v w="$workload" -v m="$metric" '$1 == w && $2 == m && $3 == "change" { print $4 }' "$layer_samples" | median)"
            ratio="$(awk -v p="$pm" -v c="$cm" 'BEGIN { print (p + 0 > 0 && c != "-") ? sprintf("%.3f", c / p) : "-" }')"
            printf "$layer_row" "$workload" "$metric" "$pm" "$cm" "$ratio"
        done
    done
    echo "# per-layer medians of the traced runs, not judged; ratio = change / parent"
fi
exit "$failed"
