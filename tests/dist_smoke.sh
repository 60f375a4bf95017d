#!/usr/bin/env bash
# Real multi-process fault-tolerance smoke: a coordinator drives four
# worker processes over the file mailbox in $WORK, two of them are
# kill -9'd mid-chunk, and the merged corpus must still be byte-identical
# to the single-process reference. The coordinator's frames.log must pass
# the V6DIST02 linter. Usage: dist_smoke.sh <v6pool_cli> <scratch-dir>
set -u

CLI="${1:?usage: dist_smoke.sh <v6pool_cli> <scratch-dir>}"
WORK="${2:?usage: dist_smoke.sh <v6pool_cli> <scratch-dir>}"

STUDY_FLAGS=(--sites 300 --days 30)

rm -rf "$WORK"
mkdir -p "$WORK/run"
cd "$WORK" || exit 1

echo "=== single-process reference ==="
"$CLI" study "${STUDY_FLAGS[@]}" --collect-only --save-corpus ref.corpus \
  || { echo "FAIL: reference study"; exit 1; }

echo "=== coordinator + 4 workers, kill -9 two mid-run ==="
"$CLI" coordinator --dir run --workers 4 --chunk-days 2 \
  "${STUDY_FLAGS[@]}" --heartbeat-timeout-ms 2000 --max-wall-ms 190000 \
  --cluster-metrics-out cluster_metrics.prom \
  --cluster-trace-out cluster_trace.json \
  --save-corpus dist.corpus > coordinator.log 2>&1 &
coord_pid=$!

worker_pids=()
for i in 1 2 3 4; do
  "$CLI" worker --dir run --id "$i" "${STUDY_FLAGS[@]}" \
    --chunk-delay-ms 300 > "worker$i.log" 2>&1 &
  worker_pids+=($!)
done

# Let the fleet take leases and upload a chunk or two, then murder two
# workers outright. The survivors must absorb the leases after the
# heartbeat timeout and the run must still complete bit-exactly.
sleep 1.2
kill -9 "${worker_pids[0]}" "${worker_pids[1]}" 2>/dev/null
echo "killed workers ${worker_pids[0]} ${worker_pids[1]}"

wait "$coord_pid"
coord_rc=$?
wait 2>/dev/null
if [ "$coord_rc" -ne 0 ]; then
  echo "FAIL: coordinator exited rc=$coord_rc"
  tail -40 coordinator.log
  exit 1
fi

grep "fleet" coordinator.log || true

if ! cmp ref.corpus dist.corpus; then
  echo "FAIL: merged corpus differs from single-process reference"
  exit 1
fi
echo "merged corpus byte-identical to single-process reference"

if ! "$CLI" lint-dist run/frames.log; then
  echo "FAIL: frames.log failed lint-dist"
  exit 1
fi

# The coordinator aggregated every surviving worker's kObsReport frames;
# the merged exposition and the multi-lane trace must lint clean even
# after two kill -9's and the lease reassignments they caused.
if ! "$CLI" lint-metrics cluster_metrics.prom; then
  echo "FAIL: cluster_metrics.prom failed lint-metrics"
  exit 1
fi
if ! "$CLI" lint-trace cluster_trace.json; then
  echo "FAIL: cluster_trace.json failed lint-trace"
  exit 1
fi
# Keep the merged observability artifacts next to the scratch dir so the
# caller (CI) can archive them after the scratch dir is removed.
cp cluster_metrics.prom cluster_trace.json "$(dirname "$WORK")/" 2>/dev/null \
  || true

# The coordinator must actually have observed the two deaths (otherwise
# the kill landed after the fleet finished and the smoke proved nothing).
deaths=$(sed -n 's/.*uploads, \([0-9]*\) deaths.*/\1/p' coordinator.log |
  tail -1)
if [ -z "${deaths:-}" ] || [ "$deaths" -lt 2 ]; then
  echo "FAIL: expected >= 2 observed worker deaths, got '${deaths:-none}'"
  tail -40 coordinator.log
  exit 1
fi

echo "PASS: recovered from 2 kill -9'd workers, corpus bit-identical"
rm -rf "$WORK"
exit 0
