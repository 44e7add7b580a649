#!/bin/sh
# Paired A/B runs of the serving benchmark (perfbench/run.py): N pairs,
# alternating which side runs first, parent against change, each from
# its own checkout, then per metric the parent's median and quartiles,
# the change's median, and how many pairs the change won.
#
#   bench/ab.sh [-n PAIRS] [-w WORKLOAD] [-s SEED] [-t SECONDS] [PARENT [CHANGE]]
#   bench/ab.sh -d [options] PARENT_DIR CHANGE_DIR
#
# PARENT and CHANGE are git revisions (default HEAD~1 and HEAD), checked
# out as detached worktrees under a temporary directory and removed at
# exit; with -d they are existing checkouts, used as they are.  Defaults:
# 10 pairs of routed-read, seed 1, 20 s.  Run from the root of a
# checkout (make ab does).  A metric's direction comes from the change's
# BENCHMARK.json (lower is better when it is not listed there); a run
# that is not correct or has failed operations stops the comparison.
# Each metric gets a verdict: "win" when the change won at least 9 of
# every 10 pairs and its median is better than the parent's by more
# than the parent's interquartile range, "loss" for the mirror image,
# and "within noise" otherwise.  Every run's values are printed after
# the summary.
set -eu

PAIRS=10 WORKLOAD=routed-read SEED=1 SECONDS_=20 DIRS=0
while getopts n:w:s:t:d opt; do
  case $opt in
  n) PAIRS=$OPTARG ;;
  w) WORKLOAD=$OPTARG ;;
  s) SEED=$OPTARG ;;
  t) SECONDS_=$OPTARG ;;
  d) DIRS=1 ;;
  *) sed -n '2,18s/^# \{0,1\}//p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

WORK=$(mktemp -d)
WORKTREES=""
cleanup() {
  for wt in $WORKTREES; do git worktree remove --force "$wt" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

if [ "$DIRS" = 1 ]; then
  [ $# -eq 2 ] || { echo "ab: -d takes PARENT_DIR CHANGE_DIR" >&2; exit 2; }
  A=$(cd "$1" && pwd) B=$(cd "$2" && pwd)
else
  PARENT=${1:-HEAD~1} CHANGE=${2:-HEAD}
  A=$WORK/parent B=$WORK/change
  git worktree add --detach "$A" "$PARENT" >/dev/null
  WORKTREES="$A"
  git worktree add --detach "$B" "$CHANGE" >/dev/null
  WORKTREES="$A $B"
fi

# One run; its last stdout line (the result object) goes to $3.
run() {
  (cd "$1" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
    --seconds "$SECONDS_" --trace 0) >"$WORK/$2.log" 2>&1 || {
    echo "ab: run $2 failed; its output:" >&2
    tail -20 "$WORK/$2.log" >&2
    exit 1
  }
  tail -1 "$WORK/$2.log" >>"$3"
}

echo "ab: $PAIRS pairs of $WORKLOAD, seed $SEED, ${SECONDS_}s; parent $A, change $B" >&2
i=1
while [ "$i" -le "$PAIRS" ]; do
  if [ $((i % 2)) = 1 ]; then
    run "$A" "parent-$i" "$WORK/parent.jsonl"
    run "$B" "change-$i" "$WORK/change.jsonl"
  else
    run "$B" "change-$i" "$WORK/change.jsonl"
    run "$A" "parent-$i" "$WORK/parent.jsonl"
  fi
  echo "ab: pair $i of $PAIRS done" >&2
  i=$((i + 1))
done

python3 - "$WORK/parent.jsonl" "$WORK/change.jsonl" "$B/BENCHMARK.json" <<'EOF'
import json, statistics, sys

def runs(path):
    out = []
    for line in open(path):
        r = json.loads(line)
        if not r["correct"] or r["failed"]:
            sys.exit("ab: a run was not correct or had failed operations: " + line)
        out.append({k: v["value"] for k, v in r["metrics"].items()})
    return out

parent, change = runs(sys.argv[1]), runs(sys.argv[2])
better = {}
try:
    spec = json.load(open(sys.argv[3]))
    for m in spec.get("end_to_end", []) + spec.get("per_layer", []):
        better[m["name"]] = m["better"]
except (OSError, ValueError):
    pass

def verdict(wins, losses, pairs, gain, iqr):
    # gain: how much better the change's median is (negative = worse)
    if 10 * wins >= 9 * pairs and gain > iqr:
        return "win"
    if 10 * losses >= 9 * pairs and -gain > iqr:
        return "loss"
    return "within noise"

print("%-26s %12s %12s %12s %12s %8s  %s" % (
    "metric", "parent_med", "parent_q1", "parent_q3", "change_med", "wins", "verdict"))
for name in parent[0]:
    a = [r[name] for r in parent]
    b = [r[name] for r in change]
    lower = better.get(name, "lower") == "lower"
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    losses = sum(1 for x, y in zip(a, b) if (y > x if lower else y < x))
    q1, _, q3 = statistics.quantiles(a, n=4) if len(a) > 1 else (a[0], a[0], a[0])
    ma, mb = statistics.median(a), statistics.median(b)
    gain = ma - mb if lower else mb - ma
    print("%-26s %12.4f %12.4f %12.4f %12.4f %5d/%d  %s" % (
        name, ma, q1, q3, mb, wins, len(a), verdict(wins, losses, len(a), gain, q3 - q1)))
print("\nevery run, in pair order (parent / change):")
for name in parent[0]:
    print("%s: %s / %s" % (name, " ".join("%.4g" % r[name] for r in parent),
                           " ".join("%.4g" % r[name] for r in change)))
EOF
