#!/bin/bash
# The paired perf gate: times the quick perf ladder of two source trees
# on one machine, alternating rung by rung, and gates each rung's
# median wall_s with `repro-perf diff` (threshold 0.25).
#
#   .github/perf_pair.sh BASE_TREE HEAD_TREE OUT_DIR
#
# Which tree is timed first alternates from rung to rung, so a position
# effect (the host running the first or the second process of a pair
# faster) does not read as a change.  A rung that reads slower past the
# threshold is run again as a second pair, in the opposite order to its
# first, and fails only if that pair fails too: a slowdown must show
# twice in a row, once in each order, so a burst of host noise during
# one pair does not fail the gate.  A rung the base does not list (a new
# rung) is timed on the head only and never fails.  Exits 1 if any rung
# failed or could not be timed.
set -u
mkdir -p "$3/base" "$3/head"
base=$(cd "$1" && pwd) head=$(cd "$2" && pwd) out=$(cd "$3" && pwd)

rungs() {  # rungs TREE: the names of the tree's ladder rungs
    (cd "$1" && PYTHONPATH=src python -m repro.perf.cli list | awk '{print $1}')
}

ladder() {  # ladder SIDE CASE: one rung, 5 trials, into OUT/SIDE/CASE.json
    local tree=$base
    [ "$1" = head ] && tree=$head
    (cd "$tree" && PYTHONPATH=src python -m repro.perf.cli run --quick \
        --quiet --case "$2" -o "$out/$1/$2.json" > /dev/null)
}

pair() {  # pair FIRST SECOND CASE: time the rung on both trees, FIRST first
    ladder "$1" "$3" && ladder "$2" "$3"
}

gate() {  # gate CASE: diff the rung's base and head files
    (cd "$head" && PYTHONPATH=src python -m repro.perf.cli diff \
        --threshold 0.25 "$out/base/$1.json" "$out/head/$1.json")
}

base_rungs=$(rungs "$base" 2> /dev/null)
status=0 first=base second=head
for case in $(rungs "$head"); do
    if ! grep -qxF "$case" <<< "$base_rungs"; then
        echo "$case: the base has no such rung; timed on the head only"
        ladder head "$case" || status=1
        continue
    fi
    if ! pair "$first" "$second" "$case"; then
        status=1
    elif ! gate "$case"; then
        echo "$case: slower past the threshold; timing a second pair, $second first"
        pair "$second" "$first" "$case" && gate "$case" || status=1
    fi
    read -r first second <<< "$second $first"
done
exit $status
