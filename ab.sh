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
# per workload the pair count, reads per query and CPU per op of both sides and
# the verdict counts, then every metric whose verdict is not ok, then the
# verdict line. The --out files and compare's full table stay in
# .bench_build/ab/. An A/A run (PARENT=HEAD) must report no regressed metric.
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

awk -v rev="$rev" -v seeds="$seeds" -v failed="$failed" '
NR == 1 { next }
{
  w = $1; m = $2; v = $NF
  if (!(w in seen)) { seen[w] = 1; order[++n] = w }
  count[w, v]++; total[v]++
  if (m == "reads_per_query") reads[w] = $3 " → " $4
  if (m == "cpu_ms_per_op") cpu[w] = $3 " → " $4
  if (v != "ok" && shown < 10) { bad[++shown] = $0 } else if (v != "ok") { more++ }
}
END {
  printf "ab: parent %s (A) vs working tree (B), seeds %s, full table .bench_build/ab/compare.txt\n", rev, seeds
  printf "%-13s %5s %-22s %-22s %4s %5s %5s\n", "workload", "pairs", "reads/query A → B", "cpu ms/op A → B", "ok", "unres", "regr"
  for (i = 1; i <= n; i++) {
    w = order[i]
    printf "%-13s %5d %-22s %-22s %4d %5d %5d\n", w, split(seeds, s, " "), reads[w], cpu[w], count[w, "ok"], count[w, "unresolved"], count[w, "regressed"]
  }
  for (i = 1; i <= shown; i++) print bad[i]
  if (more) printf "(%d more not ok in compare.txt)\n", more
  printf "verdict: %d regressed, %d unresolved, %d ok; %d runs with failed operations\n", total["regressed"], total["unresolved"], total["ok"], failed
}' "$out/compare.txt"
