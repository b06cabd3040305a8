#!/usr/bin/env bash
# Paired A/B run of perfbench: a base revision against the working tree.
#
#   scripts/ab.sh <base-rev> <workload> <pairs>
#
# The base revision's committed files are exported into a temporary
# directory (removed on exit), and both copies of perfbench are built
# `--release --offline --locked` with separate target directories. Each
# pair then runs `--trace 0` for BENCHMARK.json's `run_seconds` on both
# sides with the same seed (the pair number), base first on odd pairs
# and the working tree first on even ones, so drift in the machine
# hits both sides alike. A run whose last-line JSON says
# `"correct": false` aborts the comparison.
#
# For every end-to-end metric in BENCHMARK.json it prints both medians
# and quartiles, the change/base ratio of the medians and the pairs
# the working tree won (direction from the metric's `better`), then the
# failed-operation share of each side. Verdicts, given at 10 or more
# pairs only:
#   regression  the change's median is worse than the base's by more
#               than the metric's `bound`;
#   unresolved  either side's interquartile range is wider than the
#               bound, and not every change run beats every base run;
#   gain        the change wins >= 9/10 of the pairs, the medians
#               differ by more than the base's interquartile range, and
#               no larger share of operations failed.
# Anything else is `-`. This is a measuring tool, not a gate.
#
# Needs git, cargo and jq. Set TMPDIR to choose where the base copy and
# both target directories go (two release builds, ~1 GiB).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 3 ]; then
  echo "usage: $0 <base-rev> <workload> <pairs>" >&2
  exit 2
fi
base_rev=$1
workload=$2
pairs=$3
case "$pairs" in
  '' | *[!0-9]* | 0)
    echo "ab.sh: <pairs> must be a positive integer, not '$pairs'" >&2
    exit 2
    ;;
esac
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
base_commit=$(git rev-parse --verify "$base_rev^{commit}")

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git archive "$base_commit" | tar -x -C "$tmp/base"

build() { # <tree> <target-dir>
  echo "==> building perfbench in $1" >&2
  CARGO_TARGET_DIR="$2" cargo build --quiet --release --offline --locked \
    --manifest-path "$1/perfbench/Cargo.toml"
}
build "$tmp/base" "$tmp/target-base"
build "$PWD" "$tmp/target-change"

run() { # <side> <seed>
  local json
  json=$("$tmp/target-$1/release/ecq_perfbench" --workload "$workload" \
    --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1) || true
  if [ "$(jq -r '.correct' <<<"$json" 2>/dev/null)" != true ]; then
    echo "ab.sh: $1 run with seed $2 is not correct: $json" >&2
    exit 1
  fi
  echo "$json" >>"$tmp/$1.jsonl"
  echo "    $1: $(jq -c '.metrics | map_values(.value)' <<<"$json")" >&2
}

for pair in $(seq 1 "$pairs"); do
  echo "==> pair $pair/$pairs (seed $pair)" >&2
  if [ $((pair % 2)) -eq 1 ]; then
    run base "$pair"
    run change "$pair"
  else
    run change "$pair"
    run base "$pair"
  fi
done

echo "A/B $workload: base $base_rev (${base_commit:0:12}) vs working tree," \
  "$pairs pairs x ${seconds} s, --trace 0"
jq -rn \
  --slurpfile base "$tmp/base.jsonl" \
  --slurpfile change "$tmp/change.jsonl" \
  --slurpfile bench BENCHMARK.json '
  # Linear-interpolated quantile of a non-empty array.
  def q($p): sort as $s | (((($s | length) - 1) * $p)) as $r
    | ($r | floor) as $lo | ($r | ceil) as $hi
    | $s[$lo] + ($s[$hi] - $s[$lo]) * ($r - $lo);
  # Four significant digits (all of them at or above 1000), built from
  # an integer mantissa so no binary-float tail reaches the table.
  def fmt: if . == null then "-" elif . == 0 then "0" else
    (if . < 0 then "-" else "" end) as $sign
    | (if . < 0 then 0 - . else . end) as $a
    | ([3 - ($a | log10 | floor), 0] | max) as $d
    | ($a * pow(10; $d) | round | tostring) as $m
    | (("0" * ($d + 1 - ($m | length))) // "") + $m
    | if $d == 0 then $sign + . else $sign + .[:-$d] + "." + .[-$d:] end
    end;
  def pad($w): tostring | . + (" " * ([$w - length, 0] | max));
  def share: (map(.failed) | add) / ([map(.attempted) | add, 1] | max);

  ($base | length) as $n
  | (($change | share) <= ($base | share)) as $fewer_failures
  | ["metric", "base p50", "base q1..q3", "change p50", "change q1..q3",
     "ratio", "won", "verdict"] as $head
  | [14, 11, 21, 11, 21, 7, 7, 0] as $w
  | ($head | to_entries | map(.key as $k | .value | pad($w[$k])) | join(" ")),
    ($bench[0].end_to_end[] as $m
     | [$base[] | .metrics[$m.name].value] as $b
     | [$change[] | .metrics[$m.name].value] as $c
     | if ($b + $c | any(. == null)) then
         "\($m.name | pad(14)) not reported by both sides"
       else
         (if $m.better == "higher" then 1 else -1 end) as $dir
         | ($b | q(0.5)) as $mb | ($c | q(0.5)) as $mc
         | ([range(0; $n) | select(($c[.] - $b[.]) * $dir > 0)] | length) as $won
         | (($b | q(0.75)) - ($b | q(0.25))) as $iqr
         | ([$iqr, ($c | q(0.75)) - ($c | q(0.25))] | max) as $spread
         # Every change run better than every base run.
         | (if $dir == 1 then ($c | min) > ($b | max)
            else ($c | max) < ($b | min) end) as $separated
         | (if $n < 10 then "-"
            elif ($mc - $mb) * $dir < 0 - $m.bound * $mb then "regression"
            elif $spread > $m.bound * $mb and ($separated | not) then "unresolved"
            elif $won * 10 >= 9 * $n and ($mc - $mb) * $dir > $iqr
              and $fewer_failures then "gain"
            else "-" end) as $verdict
         | [$m.name, ($mb | fmt),
            "\($b | q(0.25) | fmt)..\($b | q(0.75) | fmt)",
            ($mc | fmt),
            "\($c | q(0.25) | fmt)..\($c | q(0.75) | fmt)",
            (if $mb == 0 then null else $mc / $mb end | fmt),
            "\($won)/\($n)", $verdict]
         | to_entries | map(.key as $k | .value | pad($w[$k])) | join(" ")
       end),
    "failed-operation share: base \($base | share), change \($change | share)",
    (if $n < 10 then "no verdict below 10 pairs" else empty end)'
