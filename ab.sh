#!/usr/bin/env bash
# A/B evidence for a change: the working tree against a parent revision, on
# the repository benchmark's end-to-end pass.
#
#   make ab PARENT=<rev> [WORKLOADS="sig-topk grid-serve"] [SEEDS="1 2 3"]
#
# It adds a git worktree of <rev> under .bench_build/ab-parent (removed again
# on exit), runs each side's own benchmark/run.sh with --trace 0, one workload
# at a time, interleaved: for every seed and workload a pair of runs, the
# parent first on odd seeds and second on even ones. It hands the two groups
# of --out files to benchmark/compare and prints a table of at most 20 lines:
# per workload the pair count, reads per query, CPU per op, allocated KB per op
# and heap MB of both sides, each side's CPU-per-op quartiles, in how many pairs
# B was below A on each of those four, and the verdict counts, then every
# metric whose verdict is not ok, then the verdict line. A claimed CPU gain is
# read off the table: B below A in at least 9 of 10 pairs, and the gap between
# the medians wider than A's interquartile range.
# The --out files and compare's full table stay in .bench_build/ab/. An A/A
# run (PARENT=HEAD) must report no regressed metric.
set -euo pipefail

parent="${1:?usage: ab.sh <rev>  (make ab PARENT=<rev>)}"
workloads="${WORKLOADS:-sig-topk grid-serve sig-churn analytic-mix}"
seeds="${SEEDS:-1 2 3}"

root="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
wt="$root/.bench_build/ab-parent"
out="$root/.bench_build/ab"
rev="$(git -C "$root" rev-parse --short "$parent")"
mkdir -p "$out"
rm -f "$out"/*.json

git -C "$root" worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
git -C "$root" worktree add --detach --quiet "$wt" "$rev"
trap 'git -C "$root" worktree remove --force "$wt"' EXIT

# run SIDE CHECKOUT SEED WORKLOAD: one end-to-end pass into its --out file,
# with one progress line on the terminal, rewritten in place.
run() {
  printf '\rab: %-6s seed %-3s %-13s' "$1" "$3" "$4" >&2
  bash "$2/benchmark/run.sh" --workload "$4" --seed "$3" --trace 0 --out "$out/$1-$3-$4.json" >/dev/null
}
for seed in $seeds; do
  for w in $workloads; do
    if (( seed % 2 )); then
      run parent "$wt" "$seed" "$w"
      run change "$root" "$seed" "$w"
    else
      run change "$root" "$seed" "$w"
      run parent "$wt" "$seed" "$w"
    fi
  done
done

echo >&2

# compare exits 1 when a metric regressed: the table still prints.
(cd "$root/benchmark" && GOWORK=off go run ./compare -benchmark ../BENCHMARK.json \
  "$out"/parent-*.json -- "$out"/change-*.json) >"$out/compare.txt" || [ $? -eq 1 ]
failed="$(cat "$out"/*.json | grep -o '"failed": *[0-9]*' | grep -cv ': *0$' || true)"

# Win counts: per workload, the pairs in which B came out below A on CPU per
# op, on reads per query, on allocated KB per op and on heap MB, as
# "wins/pairs"; then A's and B's CPU-per-op quartiles.
value() { awk -v m="\"$2\":" '$1 == m { getline; sub(/,$/, "", $2); print $2; exit }' "$1"; }
below() { awk -v a="$(value "$out/parent-$1.json" "$2")" -v b="$(value "$out/change-$1.json" "$2")" 'BEGIN { exit !(b < a) }'; }
# quartiles SIDE WORKLOAD: "q1–q3" of the side's CPU per op over the seeds, by
# the exclusive method benchmark/compare judges spread with (stat.Quartiles).
quartiles() {
  for seed in $seeds; do value "$out/$1-$seed-$2.json" cpu_ms_per_op; done | sort -g | awk '
  { v[NR] = $1 }
  function at(i,   j, d) {
    if (NR < 2) return v[1]
    j = int(i * (NR + 1) / 4); if (j < 1) j = 1; if (j > NR - 1) j = NR - 1
    d = i * (NR + 1) - j * 4
    return (v[j] * (4 - d) + v[j + 1] * d) / 4
  }
  END { printf "%.4g–%.4g", at(1), at(3) }'
}
for w in $workloads; do
  cpu=0 reads=0 alloc=0 heap=0 pairs=0
  for seed in $seeds; do
    pairs=$((pairs + 1))
    if below "$seed-$w" cpu_ms_per_op; then cpu=$((cpu + 1)); fi
    if below "$seed-$w" reads_per_query; then reads=$((reads + 1)); fi
    if below "$seed-$w" alloc_kb_per_op; then alloc=$((alloc + 1)); fi
    if below "$seed-$w" heap_mb; then heap=$((heap + 1)); fi
  done
  echo "$w $cpu/$pairs $reads/$pairs $alloc/$pairs $heap/$pairs $(quartiles parent "$w") $(quartiles change "$w")"
done >"$out/wins.txt"

awk -v rev="$rev" -v seeds="$seeds" -v failed="$failed" '
FNR == NR { cpuwin[$1] = $2; readwin[$1] = $3; allocwin[$1] = $4; heapwin[$1] = $5; cpuq[$1] = $6 " | " $7; next }
FNR == 1 { next }
{
  w = $1; m = $2; v = $NF
  if (!(w in seen)) { seen[w] = 1; order[++n] = w }
  count[w, v]++; total[v]++
  if (m == "reads_per_query") reads[w] = $3 " → " $4
  if (m == "cpu_ms_per_op") cpu[w] = $3 " → " $4
  if (m == "alloc_kb_per_op") alloc[w] = $3 " → " $4
  if (m == "heap_mb") heap[w] = $3 " → " $4
  if (v != "ok" && shown < 10) { bad[++shown] = $0 } else if (v != "ok") { more++ }
}
END {
  printf "ab: parent %s (A) vs working tree (B), seeds %s, full table .bench_build/ab/compare.txt\n", rev, seeds
  printf "%-13s %5s %-22s %-22s %-30s %-22s %-22s %-7s %-7s %-7s %-7s %4s %5s %5s\n", "workload", "pairs", "reads/query A → B", "cpu ms/op A → B", "cpu q1–q3 A | B", "alloc KB/op A → B", "heap MB A → B", "cpu B<A", "rds B<A", "kb B<A", "mb B<A", "ok", "unres", "regr"
  for (i = 1; i <= n; i++) {
    w = order[i]
    printf "%-13s %5d %-22s %-22s %-30s %-22s %-22s %-7s %-7s %-7s %-7s %4d %5d %5d\n", w, split(seeds, s, " "), reads[w], cpu[w], cpuq[w], alloc[w], heap[w], cpuwin[w], readwin[w], allocwin[w], heapwin[w], count[w, "ok"], count[w, "unresolved"], count[w, "regressed"]
  }
  for (i = 1; i <= shown; i++) print bad[i]
  if (more) printf "(%d more not ok in compare.txt)\n", more
  printf "verdict: %d regressed, %d unresolved, %d ok; %d runs with failed operations\n", total["regressed"], total["unresolved"], total["ok"], failed
}' "$out/wins.txt" "$out/compare.txt"
