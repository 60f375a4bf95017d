#!/usr/bin/env bash
# Real multi-process scaling check: the same study collected by a
# coordinator with 1 worker process, then with 4, each worker limited to
# one collector thread. Leases are device ranges, so 4 workers share the
# work instead of repeating it: the 4-worker run must be faster by at
# least MIN_SPEEDUP (default 1.2) and merge to the identical corpus.
# Needs at least 4 idle cores to mean anything; wall-clock, so it is not
# part of ctest. Usage: dist_scaling.sh <v6pool_cli> <scratch-dir>
set -u

CLI="${1:?usage: dist_scaling.sh <v6pool_cli> <scratch-dir>}"
WORK="${2:?usage: dist_scaling.sh <v6pool_cli> <scratch-dir>}"
MIN_SPEEDUP="${MIN_SPEEDUP:-1.2}"

STUDY_FLAGS=(--sites 20000 --days 120 --collector-threads 1)

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK" || exit 1

now() { date +%s.%N; }

# Runs coordinator + N workers; prints the wall seconds.
fleet() {
  local n=$1
  mkdir -p "run$n"
  local t0
  t0=$(now)
  "$CLI" coordinator --dir "run$n" --workers "$n" --chunk-days 30 \
    "${STUDY_FLAGS[@]}" --save-corpus "dist$n.corpus" > "coordinator$n.log" 2>&1 &
  local coord_pid=$!
  for i in $(seq 1 "$n"); do
    "$CLI" worker --dir "run$n" --id "$i" "${STUDY_FLAGS[@]}" \
      > "worker$n-$i.log" 2>&1 &
  done
  wait "$coord_pid" || { echo "FAIL: $n-worker coordinator" >&2; exit 1; }
  local t1
  t1=$(now)
  wait
  python3 -c "print(f'{$t1 - $t0:.3f}')"
}

one=$(fleet 1)
four=$(fleet 4)
echo "1 worker : ${one} s"
echo "4 workers: ${four} s"

if ! cmp dist1.corpus dist4.corpus; then
  echo "FAIL: 1-worker and 4-worker corpora differ"
  exit 1
fi

if ! python3 -c "
speedup = $one / $four
print(f'speedup  : {speedup:.2f}x (minimum $MIN_SPEEDUP)')
raise SystemExit(0 if speedup >= $MIN_SPEEDUP else 1)"; then
  echo "FAIL: 4 workers not faster than 1 by the minimum"
  exit 1
fi
echo "PASS: 4 workers faster than 1, corpus identical"
rm -rf "$WORK"
exit 0
