#!/usr/bin/env bash
# Does the benchmark repeat? Two sets of 3 untraced runs of every workload
# on the same code — different seeds within a set, the same seed list in
# both sets, the two runs of a seed back to back so that a slow spell of
# the host falls on both sets — then, per workload × end-to-end metric,
# the two medians, their gap as a share of the smaller one (positive =
# second set worse) and the bound from BENCHMARK.json. The code is the
# same, so a gap over the bound in either direction fails; appends the
# table to README.md.
#
#   benchmark/repeat.sh
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seeds=(11 12 13)
workloads=(stream_sla ingest_sat bulk_refresh readers_fleet)

mkdir -p "$here/out"
runs="$here/out/repeat-runs.$$"
trap 'rm -f "$runs"' EXIT
for workload in "${workloads[@]}"; do
    for seed in "${seeds[@]}"; do
        for set in 1 2; do
            echo "set $set: $workload seed $seed" >&2
            "$here/run.sh" --workload "$workload" --seed "$seed" --trace 0 |
                awk -v s="$set" -v w="$workload" '/^[a-z][a-z0-9_.]* [^ ]+ [-0-9.e+]+( |$)/ { print s, w, $1, $3 }' >>"$runs"
        done
    done
done

# name, direction and bound of each end-to-end metric: one per line in
# BENCHMARK.json, between "end_to_end" and "per_layer".
bounds="$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",{}]/, ""); print $2, $6, $8 }' "$root/BENCHMARK.json")"

table="$(awk -v bounds="$bounds" '
    function median(key,    n, i, j, t, v) {
        n = split(vals[key], v, " ")
        for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
    }
    BEGIN {
        n = split(bounds, b, "\n")
        for (i = 1; i <= n; i++) { split(b[i], f, " "); better[f[1]] = f[2]; bound[f[1]] = f[3]; order[i] = f[1] }
        metrics = n
    }
    { key = $1 SUBSEP $2 SUBSEP $3; vals[key] = vals[key] " " $4; if (!($2 in seen)) { seen[$2] = 1; ws[++nw] = $2 } }
    END {
        print "| workload | metric | median, set 1 | median, set 2 | gap | bound | |"
        print "|---|---|---|---|---|---|---|"
        for (w = 1; w <= nw; w++) for (i = 1; i <= metrics; i++) {
            m = order[i]
            a = median(1 SUBSEP ws[w] SUBSEP m); c = median(2 SUBSEP ws[w] SUBSEP m)
            gap = (better[m] == "higher" ? a - c : c - a) / (a < c ? a : c)
            over = (gap < 0 ? -gap : gap) > bound[m]
            if (over) bad = 1
            printf "| %s | %s | %.4g | %.4g | %+.1f %% | %.0f %% | %s |\n", ws[w], m, a, c, gap * 100, bound[m] * 100, over ? "OVER" : ""
        }
        exit bad
    }' "$runs")" && status=0 || status=$?

echo "$table"
{
    echo
    echo "### repeat.sh, commit $(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown), $(date -u +%Y-%m-%dT%H:%MZ)"
    echo
    echo "$table"
} >>"$here/README.md"
exit "$status"
