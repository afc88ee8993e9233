#!/bin/bash
# The paired perf gate: times the quick perf ladder of two source trees
# on one machine, alternating rung by rung, and gates each rung's
# median wall_s with `repro-perf diff` (threshold 0.25).
#
#   .github/perf_pair.sh BASE_TREE HEAD_TREE OUT_DIR
#
# A rung that reads slower past the threshold is run again as a second
# pair, head first, and fails only if that pair fails too: a slowdown
# must show twice in a row, so a burst of host noise during one pair
# does not fail the gate.  A rung the base cannot run (a new rung) is
# timed on the head only and never fails.  Exits 1 if any rung failed.
set -u
mkdir -p "$3/base" "$3/head"
base=$(cd "$1" && pwd) head=$(cd "$2" && pwd) out=$(cd "$3" && pwd)

ladder() {  # ladder TREE SIDE CASE: one rung, 5 trials, into OUT/SIDE/CASE.json
    (cd "$1" && PYTHONPATH=src python -m repro.perf.cli run --quick \
        --quiet --case "$3" -o "$out/$2/$3.json" > /dev/null)
}

gate() {  # gate CASE: diff the rung's base and head files
    (cd "$head" && PYTHONPATH=src python -m repro.perf.cli diff \
        --threshold 0.25 "$out/base/$1.json" "$out/head/$1.json")
}

status=0
for case in $(cd "$head" && PYTHONPATH=src python -m repro.perf.cli list | awk '{print $1}'); do
    if ! ladder "$base" base "$case" 2> /dev/null; then
        echo "$case: the base has no such rung; timed on the head only"
        ladder "$head" head "$case" || status=1
        continue
    fi
    ladder "$head" head "$case" || { status=1; continue; }
    if ! gate "$case"; then
        echo "$case: slower past the threshold; timing a second pair, head first"
        ladder "$head" head "$case" && ladder "$base" base "$case" \
            && gate "$case" || status=1
    fi
done
exit $status
