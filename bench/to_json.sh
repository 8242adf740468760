#!/usr/bin/env sh
# Turns the smoke-run tables of bench_fig7, bench_table3 and (optionally)
# bench_batching — plus any obs-registry `name=value` dump lines they
# contain (MVCC_STATS=1) — into one flat machine-readable JSON object
# (metric name -> number), so every CI run archives a comparable perf
# record (bench-smoke.json) and the trajectory of the repo's throughput,
# latency quantiles and memory footprint can be graphed across commits.
#
# Usage: to_json.sh fig7.txt table3.txt [batching.txt] [footprint.csv] \
#            > bench-smoke.json
#
# Emitted keys:
#   fig7/<workload>/<structure>_mops    YCSB throughput, Mop/s
#   fig7lat/<structure>/<workload>/<q>  steady-state latency quantiles, us
#   table3/p<N>/<column>_s              inverted-index phase times, seconds
#                                       (Tu+Tq -> TuplusTq, Tu+q -> Tuplusq)
#   batching/mb<N>/<column>             batch-bound sweep row, per max_batch
#   fig7/shardscale/s<N>/<column>       sharded YCSB A scale-out row, per
#   batching/shardscale/s<N>/<column>   shard count (the "shards" tables)
#   footprint/<column>/peak|mean|final  footprint-curve summary per sampler
#                                       column (MVCC_SAMPLE_MS CSV)
#   <bench>/<metric>[/<stat>]           obs registry dumps, already
#                                       namespaced by the emitting bench
#                                       (e.g. fig7/ftree/live_nodes_hwm,
#                                       batching/txn/commit_latency_ns/p99)
#   loc/include                         lines in the library's headers
#                                       (include/**/*.h), so code size has
#                                       a trajectory too
#
# A table whose header drifted parses to nothing; that must fail the run
# loudly, not archive a silently empty JSON — any input file yielding zero
# metrics exits non-zero.
set -eu

fig7="${1:-fig7-smoke.txt}"
table3="${2:-table3-smoke.txt}"
batching="${3:-}"
footprint="${4:-}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Registry dump lines pass through verbatim: the benches already namespace
# them (fig7/..., batching/...). Whole-line match so table rows and chatter
# never alias into metrics.
metric_lines() {
  awk '/^[A-Za-z0-9_][A-Za-z0-9_\/+.-]*=-?[0-9]+(\.[0-9]+)?$/' "$1"
}

parse_fig7() {
  awk '
    /^====/ { mode = "" }
    $1 == "workload" {
      for (i = 2; i <= NF; i++) col[i] = $i
      mode = "tput"; next
    }
    $1 == "structure" {
      for (i = 3; i <= NF; i++) lcol[i] = $i
      mode = "lat"; next
    }
    $1 == "shards" {
      for (i = 2; i <= NF; i++) scol[i] = $i
      mode = "shard"; next
    }
    mode == "tput" && ($1 == "A" || $1 == "B" || $1 == "C") {
      for (i = 2; i <= NF; i++) printf "fig7/%s/%s_mops=%s\n", $1, col[i], $i
    }
    mode == "lat" && ($2 == "A" || $2 == "B" || $2 == "C") {
      for (i = 3; i <= NF; i++)
        printf "fig7lat/%s/%s/%s=%s\n", $1, $2, lcol[i], $i
    }
    mode == "shard" && $1 ~ /^[0-9]+$/ {
      for (i = 2; i <= NF; i++)
        printf "fig7/shardscale/s%s/%s=%s\n", $1, scol[i], $i
    }
  ' "$1"
  metric_lines "$1"
}

parse_table3() {
  awk '
    $1 == "p" { for (i = 2; i <= NF; i++) col[i] = $i; have = 1; next }
    have && $1 ~ /^[0-9]+$/ {
      for (i = 2; i <= NF; i++) {
        name = col[i]
        gsub(/\+/, "plus", name)
        printf "table3/p%s/%s_s=%s\n", $1, name, $i
      }
    }
  ' "$1"
  metric_lines "$1"
}

parse_batching() {
  awk '
    /^====/ { mode = "" }
    $1 == "max_batch" {
      for (i = 2; i <= NF; i++) col[i] = $i
      mode = "mb"; next
    }
    $1 == "shards" {
      for (i = 2; i <= NF; i++) scol[i] = $i
      mode = "shard"; next
    }
    mode == "mb" && $1 ~ /^[0-9]+$/ {
      for (i = 2; i <= NF; i++) printf "batching/mb%s/%s=%s\n", $1, col[i], $i
    }
    mode == "shard" && $1 ~ /^[0-9]+$/ {
      for (i = 2; i <= NF; i++)
        printf "batching/shardscale/s%s/%s=%s\n", $1, scol[i], $i
    }
  ' "$1"
  metric_lines "$1"
}

# Footprint-over-time curve (sampler CSV: t_ms,col,...) summarized to
# peak/mean/final per column — enough to spot a footprint regression in the
# archived JSON without re-plotting the curve.
parse_footprint() {
  awk -F, '
    NR == 1 { n = split($0, cols, ","); next }
    {
      for (i = 2; i <= n; i++) {
        v = $i + 0
        if (count[i] == 0 || v > peak[i]) peak[i] = v
        sum[i] += v
        fin[i] = v
        count[i]++
      }
    }
    END {
      for (i = 2; i <= n; i++) {
        if (count[i] == 0) continue
        printf "footprint/%s/peak=%d\n", cols[i], peak[i]
        printf "footprint/%s/mean=%.3f\n", cols[i], sum[i] / count[i]
        printf "footprint/%s/final=%d\n", cols[i], fin[i]
      }
    }
  ' "$1"
}

require_metrics() {
  if ! [ -s "$1" ]; then
    echo "to_json.sh: zero metrics parsed from $2 (table header drift?)" >&2
    exit 1
  fi
}

parse_fig7 "$fig7" > "$tmp/fig7"
require_metrics "$tmp/fig7" "$fig7"
parse_table3 "$table3" > "$tmp/table3"
require_metrics "$tmp/table3" "$table3"
cat "$tmp/fig7" "$tmp/table3" > "$tmp/all"
if [ -n "$batching" ]; then
  parse_batching "$batching" > "$tmp/batching"
  require_metrics "$tmp/batching" "$batching"
  cat "$tmp/batching" >> "$tmp/all"
fi
if [ -n "$footprint" ]; then
  parse_footprint "$footprint" > "$tmp/footprint"
  require_metrics "$tmp/footprint" "$footprint"
  cat "$tmp/footprint" >> "$tmp/all"
fi

# Code size: every header under include/, found relative to this script.
include_dir="$(dirname "$0")/../include"
printf 'loc/include=%s\n' \
  "$(find "$include_dir" -name '*.h' -exec cat {} + | wc -l | tr -d ' ')" \
  >> "$tmp/all"

awk -F= '
  BEGIN { print "{" }
  { rows[++n] = sprintf("  \"%s\": %s", $1, $2) }
  END {
    for (i = 1; i <= n; i++) printf "%s%s\n", rows[i], i < n ? "," : ""
    print "}"
  }
' "$tmp/all"
