#!/usr/bin/env bash
# Failure smoke: completeness-under-failure over real processes. Builds
# mortard, generates a ranged peers file multiplexing 150 peers behind
# each UDP socket, and runs one 600-peer federation as two real processes
# (coordinator hosting 0-299, worker hosting 300-599). Both replay the
# same scripted chaos schedule — 30% fail-stop at t=60s, staggered
# recovery of everything at t=90s — each gating only the peers it hosts;
# the expansion is seed-deterministic so the processes agree on the
# global fault pattern without coordinating. The coordinator samples
# per-window completeness against the schedule's live-node count and
# writes CURVE_<scenario>.json; the gate fails unless the pre-fault
# baseline covers the whole federation, the schedule bottomed out at 420
# live, and post-recovery completeness returned to the baseline.
#
# Usage: scripts/failure_smoke.sh   (from the repo root)
# Env:   FAIL_PEERS (default 600), FAIL_PER_SOCK (default 150),
#        FAIL_BASE_PORT (default 49300), FAIL_DURATION (default 150s),
#        CURVE_OUT (default . — where CURVE_*.json lands for upload)
set -euo pipefail

PEERS="${FAIL_PEERS:-600}"
PER_SOCK="${FAIL_PER_SOCK:-150}"
BASE_PORT="${FAIL_BASE_PORT:-49300}"
JOIN="127.0.0.1:$((BASE_PORT + 999))"
DUR="${FAIL_DURATION:-150s}"
CURVE_OUT="${CURVE_OUT:-.}"
HALF=$((PEERS / 2))
KILLED=$((PEERS * 30 / 100))

tmp="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

dump_logs() {
  echo "---- coordinator log ----"
  sed -n '1,120p' "$tmp/coord.log" 2>/dev/null || true
  echo "---- worker log ----"
  sed -n '1,60p' "$tmp/worker.log" 2>/dev/null || true
}

go build -o "$tmp/mortard" ./cmd/mortard
"$tmp/mortard" -gen-peers-file "$tmp/peers.txt" -peers "$PEERS" \
  -peers-per-socket "$PER_SOCK" -base-port "$BASE_PORT"

# Four trees: the paper's multi-tree redundancy is what keeps completeness
# near the live count through failures (Fig 12); the 2s window gives every
# sensor a slide to land in before the first result.
echo "query peers as count() from sensors window time 2s slide 2s trees 4 bf 32" > "$tmp/query.msl"

# Kill 30% at t=60s (the federation converges well before that), hold 30s,
# then stagger everything back.
cat > "$tmp/chaos.json" <<EOF
{
  "scenario": "smoke-kill30",
  "seed": 20080417,
  "sample_ms": 500,
  "events": [
    {"kind": "kill", "at_ms": 60000, "frac": 0.3, "stagger_ms": 20},
    {"kind": "recover", "at_ms": 90000, "all": true, "stagger_ms": 20}
  ]
}
EOF

common=(-peers-file "$tmp/peers.txt" -msl "$tmp/query.msl" -chaos "$tmp/chaos.json")
"$tmp/mortard" "${common[@]}" -host "$HALF-$((PEERS - 1))" -join "$JOIN" -duration 300s \
  > "$tmp/worker.log" 2>&1 &
pids+=($!)
"$tmp/mortard" "${common[@]}" -host "0-$((HALF - 1))" -listen "$JOIN" -duration "$DUR" \
  -curve-dir "$tmp" > "$tmp/coord.log" 2>&1 &
coord=$!
pids+=("$coord")

# Pre-fault baseline: full completeness must appear before the 60s kill.
ok=0
for _ in $(seq 1 55); do
  if grep -q "completeness=$PEERS" "$tmp/coord.log" 2>/dev/null; then
    ok=1
    break
  fi
  if ! kill -0 "$coord" 2>/dev/null; then
    break
  fi
  sleep 1
done
if [ "$ok" != 1 ]; then
  dump_logs
  echo "FAIL: completeness=$PEERS never reported before the scheduled kill"
  exit 1
fi
echo "baseline completeness=$PEERS reached; faults incoming"

# Bounded wait for the coordinator's -duration (and the chaos summary it
# prints on the way out): a wedged run must fail with logs, not hang CI.
deadline=$(( $(date +%s) + 240 ))
while kill -0 "$coord" 2>/dev/null; do
  if [ "$(date +%s)" -ge "$deadline" ]; then
    dump_logs
    echo "FAIL: coordinator still running long past its -duration"
    exit 1
  fi
  sleep 2
done
wait "$coord" 2>/dev/null || true

summary="$(grep '# chaos summary:' "$tmp/coord.log" | tail -1)"
if [ -z "$summary" ]; then
  dump_logs
  echo "FAIL: coordinator printed no chaos summary"
  exit 1
fi
echo "$summary"
baseline="$(sed -En 's/.* baseline=([0-9]+).*/\1/p' <<< "$summary")"
min_live="$(sed -En 's/.* min_live=([0-9]+).*/\1/p' <<< "$summary")"
recovered="$(sed -En 's/.* recovered=([0-9]+).*/\1/p' <<< "$summary")"

fail=0
if [ "$baseline" != "$PEERS" ]; then
  echo "FAIL: pre-fault baseline $baseline, want $PEERS"
  fail=1
fi
if [ "$min_live" != "$((PEERS - KILLED))" ]; then
  echo "FAIL: schedule bottomed at $min_live live, want $((PEERS - KILLED))"
  fail=1
fi
if [ -z "$recovered" ] || [ "$recovered" -lt "$baseline" ]; then
  echo "FAIL: post-recovery completeness $recovered below the pre-fault baseline $baseline"
  fail=1
fi
if [ "$fail" != 0 ]; then
  dump_logs
  exit 1
fi

mkdir -p "$CURVE_OUT"
cp "$tmp"/CURVE_*.json "$CURVE_OUT/"
echo "OK: $PEERS peers survived a 30% scripted fail-stop — baseline=$baseline min_live=$min_live recovered=$recovered; curve at $CURVE_OUT/CURVE_smoke-kill30.json"
