#!/usr/bin/env bash
# A/B benchmark of two revisions with the repository's benchmark.
#
#   scripts/perf_ab.sh BASE HEAD [PAIRS]
#
# Extracts BASE and HEAD (any git revisions) with `git archive` under
# target/perf_ab/, builds perfbench in each, then runs every workload in
# BENCHMARK.json as PAIRS (default 10) pairs: each pair runs both sides
# on one fresh seed with the BENCHMARK.json command and its
# `run_seconds`, and the side that goes first alternates from pair to
# pair. Writes BENCH_perf.json at the repository root:
#   - `host`: CPU model, nproc, rustc (from perfbench's stamp), kernel;
#   - `workloads.<name>.end_to_end.<metric>`: each side's median, first
#     and third quartile and IQR, the median change in percent, whether
#     the gap between the medians exceeds BASE's IQR, and in how many
#     pairs HEAD was better;
#   - `workloads.<name>.rows.<row>`: the same for the ungated latency
#     and throughput rows (`light_p50_ms`, `busy_p95_ms`, `saturated_rps`);
#   - `runs`: every run's final JSON line, with its rows, seed and order.
# Then prints the bench-diff on stdout: one line per workload and
# end-to-end metric with BASE median -> HEAD median, the change in
# percent and HEAD's wins over the pairs, flagged WORSE when the change
# goes the metric's worse way by more than BASE's IQR or by more than
# its BENCHMARK.json `bound`, read as a relative change.
# Quantiles interpolate linearly between order statistics. Nothing under
# perfbench/ is touched; each extracted tree keeps its own build.
# Run from a quiet machine: the two sides share it, so any other load
# lands on both but widens the spread.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/perf_ab.sh BASE HEAD [PAIRS]"
base_ref=${1:?$usage}
head_ref=${2:?$usage}
pairs=${3:-10}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "$usage (PAIRS must be a positive integer)" >&2; exit 2; }

base=$(git rev-parse --verify "$base_ref^{commit}")
head=$(git rev-parse --verify "$head_ref^{commit}")
work=target/perf_ab
mkdir -p "$work"
runs="$work/runs-$(date -u +%Y%m%dT%H%M%SZ)"
mkdir -p "$runs"

mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
# Fresh seeds on every invocation, recorded in the output.
first_seed=$(( $(date +%s) % 1000000 ))

tree() { echo "$work/$1"; }

# The bench-diff table of a BENCH_perf.json (see the header).
bench_diff() {
  jq -r '.workloads | to_entries[] | .key as $w | .value.end_to_end | to_entries[]
    | .value as $v
    | if $v.base.median == null or $v.head.median == null then [$w, .key, "no data"] else
        ($v.head.median - $v.base.median) as $gap
        | (if $v.better == "lower" then $gap > 0 else $gap < 0 end) as $worse
        | [if $worse and ($gap | fabs) > $v.base.iqr then "base IQR" else empty end,
           if $worse and $v.bound != null and ($gap | fabs) > $v.bound * ($v.base.median | fabs)
           then "bound \($v.bound * 100)%" else empty end] as $beyond
        | [$w, .key, $v.base.median, $v.head.median, $v.unit, $v.change_pct, $v.head_wins, $v.pairs,
           (if $beyond == [] then "" else "WORSE beyond " + ($beyond | join(" and ")) end)]
      end | @tsv' "$1" |
    awk -F '\t' '{
      if (NF < 9) { printf "%-9s %-18s %s\n", $1, $2, $3; next }
      printf "%-9s %-18s %10.4g -> %-10.4g %-4s %+7.2f%%  %2d/%-2d %s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9
    }'
}

for rev in "$base" "$head"; do
  dir=$(tree "$rev")
  if [[ ! -f $dir/BENCHMARK.json ]]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$rev" | tar -x -C "$dir"
  fi
  echo "perf_ab: building perfbench at ${rev:0:12}" >&2
  (cd "$dir" && cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
done

# One run: prints one JSON object (final line, rows, seed, side, order).
run_one() {
  local workload=$1 seed=$2 side=$3 order=$4 rev=$5
  local log="$runs/$workload-$seed-$side.log"
  local status=0
  (cd "$(tree "$rev")" && "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds") \
    >"$log" 2>"$log.err" || status=$?
  local result
  result=$(tail -n 1 "$log")
  if [[ $status -ne 0 ]] || ! jq -e 'has("metrics")' >/dev/null 2>&1 <<<"$result"; then
    echo "perf_ab: $workload seed $seed ($side) failed with exit $status; see $log.err" >&2
    result=null
  fi
  awk -v w="$workload" '$1 == "row" && $2 == w { print $3, $4 }' "$log" |
    jq -c -R -s --argjson result "$result" --arg workload "$workload" --arg side "$side" \
      --argjson seed "$seed" --argjson order "$order" --arg stamp "$(grep -m1 '^stamp ' "$log" | cut -d' ' -f2-)" '
      {workload: $workload, seed: $seed, side: $side, order: $order,
       stamp: ($stamp | fromjson? // null),
       rows: (split("\n") | map(select(length > 0) | split(" ") | {(.[0]): (.[1] | tonumber)}) | add // {}),
       result: $result}'
}

for workload in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    seed=$((first_seed + i))
    if ((i % 2 == 0)); then order=(base head); else order=(head base); fi
    for k in 0 1; do
      side=${order[$k]}
      if [[ $side == base ]]; then rev=$base; else rev=$head; fi
      echo "perf_ab: $workload pair $((i + 1))/$pairs seed $seed $side" >&2
      run_one "$workload" "$seed" "$side" "$k" "$rev" >>"$runs/runs.jsonl"
    done
  done
done

jq -s \
  --slurpfile bench BENCHMARK.json \
  --arg base_ref "$base_ref" --arg base "$base" \
  --arg head_ref "$head_ref" --arg head "$head" \
  --arg kernel "$(uname -sr)" --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  --argjson pairs "$pairs" --argjson first_seed "$first_seed" --argjson seconds "$seconds" '
  def q($p): sort as $s | ($s | length) as $n
    | if $n == 0 then null else
        ((($n - 1) * $p) as $h | ($h | floor) as $lo | ($h | ceil) as $hi
         | $s[$lo] + ($h - $lo) * ($s[$hi] - $s[$lo])) end;
  def summary: {median: q(0.5), q1: q(0.25), q3: q(0.75), iqr: (q(0.75) - q(0.25)), n: length};
  # Compare the two sides of one metric: values come from `f` per run.
  def compare(runs; f; better):
    (runs | map(select(.side == "base") | f | select(. != null))) as $b
    | (runs | map(select(.side == "head") | f | select(. != null))) as $h
    | (runs | group_by(.seed) | map(
        (map(select(.side == "base") | f)[0]) as $x
        | (map(select(.side == "head") | f)[0]) as $y
        | select($x != null and $y != null)
        | if better == "lower" then $y < $x else $y > $x end)) as $wins
    | ($b | summary) as $bs | ($h | summary) as $hs
    | {better: better, base: $bs, head: $hs,
       change_pct: (if $bs.median == null or $hs.median == null or $bs.median == 0 then null
                    else ($hs.median / $bs.median - 1) * 100 end),
       gap_beyond_base_iqr: (if $bs.median == null or $hs.median == null then null
                             else (($hs.median - $bs.median) | fabs) > $bs.iqr end),
       head_wins: ($wins | map(select(.)) | length), pairs: ($wins | length)};
  . as $runs
  | $bench[0] as $b
  | {
      host: (($runs | map(.stamp | select(. != null)) | first
              | {cpu, nproc, rustc}) + {kernel: $kernel}),
      date: $date,
      base: {ref: $base_ref, rev: $base},
      head: {ref: $head_ref, rev: $head},
      command: $b.command, seconds: $seconds, pairs: $pairs, first_seed: $first_seed,
      quantiles: "linear interpolation between order statistics",
      workloads: ($b.workloads | map(.name as $w
        | ($runs | map(select(.workload == $w))) as $r
        | {($w): {
            correct: ($r | all(.result.correct == true)),
            failed: ($r | map(.result.failed // 1) | add),
            end_to_end: ($b.end_to_end | map(. as $m
              | {($m.name): ({unit: $m.unit, bound: $m.bound}
                  + compare($r; .result.metrics[$m.name].value; $m.better))}) | add),
            rows: ([["light_p50_ms", "lower"], ["busy_p95_ms", "lower"], ["saturated_rps", "higher"]]
              | map(. as [$name, $better]
                | select($r | any(.rows[$name] != null))
                | {($name): compare($r; .rows[$name]; $better)}) | add // {})
          }}) | add),
      runs: $runs
    }' "$runs/runs.jsonl" >BENCH_perf.json
echo "perf_ab: wrote BENCH_perf.json (runs in $runs)" >&2
bench_diff BENCH_perf.json
