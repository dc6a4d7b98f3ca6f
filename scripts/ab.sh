#!/usr/bin/env bash
# A/B dvmbench between a parent commit and this checkout, the way
# benchmark/README.md prescribes: alternating pairs of deployed runs
# (`--trace 0`), one seed per pair, medians per side and pairs won, each
# end-to-end metric judged against its `bound` in BENCHMARK.json.
#
#   scripts/ab.sh <parent-ref> [--pairs N] [--workload W]...
#
# Default: 3 pairs x the 4 workloads (~15 min). A claimed gain wants
# `--pairs 10 --workload <the claimed one>`.
#
# The parent is checked out into a temporary `git worktree` and built into
# a target directory of its own. Never share a target directory between
# two source trees: when mtimes line up cargo links the other tree's stale
# rlibs without a word, and both sides measure the same code.
#
# Exits non-zero when an end-to-end metric's median is worse than the
# parent's by more than its bound, or when any run fails or does not print
# `correct true`. Minutes long - not part of scripts/ci.sh.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() { echo "usage: $0 <parent-ref> [--pairs N] [--workload W]..." >&2; exit 2; }
[ $# -ge 1 ] || usage
ref="$1"; shift
pairs=3
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        *) usage ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(stream_sla ingest_sat bulk_refresh readers_fleet)

tmp="$(mktemp -d)"
parent="$tmp/parent"
cleanup() {
    git -C "$root" worktree remove --force "$parent" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$parent" "$ref" >/dev/null
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
run_side() {             # side workload seed
    local out="$tmp/run.out"
    if ! CARGO_TARGET_DIR="$(target_of "$1")" bash "$(tree_of "$1")/benchmark/run.sh" \
            --workload "$2" --seed "$3" --trace 0 >"$out" 2>"$tmp/run.err"; then
        echo "FAIL: $1 $2 seed $3 exited non-zero" >&2
        tail -5 "$tmp/run.err" >&2
        failed=1
    fi
    if ! grep -q 'correct true' "$out"; then
        echo "FAIL: $1 $2 seed $3 did not print 'correct true'" >&2
        failed=1
    fi
    # Metric lines read `name unit value  # how it was taken`.
    awk -v w="$2" -v s="$1" '/^[a-z0-9_.]+ [^ ]+ [-0-9.eE+]+( |$)/ { print w, $1, s, $3 }' "$out" >>"$samples"
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

median() { sort -g | awk '{ v[NR] = $1 } END { if (!NR) exit; if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }

# Samples of one (workload, metric, side), in pair order.
of() { awk -v w="$1" -v m="$2" -v s="$3" '$1 == w && $2 == m && $3 == s { print $4 }' "$samples"; }

printf '\n%-14s %-18s %14s %14s %8s %8s %6s %6s  %s\n' workload metric parent change ratio worse bound wins verdict
# BENCHMARK.json states one end-to-end metric per line: name, better, bound.
sed -n '/"end_to_end"/,/\]/p' "$root/BENCHMARK.json" \
    | sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' >"$tmp/bounds"
for workload in "${workloads[@]}"; do
    while read -r metric better bound; do
        p="$(of "$workload" "$metric" parent | median)"
        c="$(of "$workload" "$metric" change | median)"
        if [ -z "$p" ] || [ -z "$c" ]; then
            printf '%-14s %-18s %14s %14s %8s %8s %6s %6s  %s\n' "$workload" "$metric" "${p:--}" "${c:--}" - - "$bound" - MISSING
            failed=1
            continue
        fi
        # Pairs in which the change read better than its parent.
        wins="$(paste <(of "$workload" "$metric" parent) <(of "$workload" "$metric" change) \
            | awk -v better="$better" '(better == "lower") ? $2 < $1 : $2 > $1 { n++ } END { printf "%d/%d", n, NR }')"
        verdict="$(awk -v p="$p" -v c="$c" -v better="$better" -v bound="$bound" 'BEGIN {
            worse = (better == "lower") ? (c - p) / p : (p - c) / p
            printf "%.3f %+.1f%% %s", c / p, 100 * worse, (worse > bound) ? "WORSE" : "ok"
        }')"
        read -r ratio worse word <<<"$verdict"
        printf '%-14s %-18s %14.6g %14.6g %8s %8s %6s %6s  %s\n' "$workload" "$metric" "$p" "$c" "$ratio" "$worse" "$bound" "$wins" "$word"
        [ "$word" = ok ] || failed=1
    done <"$tmp/bounds"
done
echo "# ratio = change / parent of the medians; worse = by how much the change is on the wrong side (negative: better); wins = pairs the change won"
exit "$failed"
