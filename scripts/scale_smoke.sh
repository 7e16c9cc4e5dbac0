#!/usr/bin/env bash
# Scale smoke: the multiplexed socket layout at hundreds of peers. Builds
# mortard, generates a ranged peers file (-gen-peers-file) multiplexing 150
# peers behind each UDP socket, and runs one 600-peer federation as two
# real processes — a coordinator hosting peers 0-299 and a worker hosting
# 300-599 — with no transport flag set: both gossip Vivaldi coordinates at
# a bounded fan-out and the coordinator must plan from them, and the
# writers pack whatever backs up behind them into trains. The count query
# must reach full completeness: every peer joined through a shared socket
# and its sensor reached the root, so shared-socket demux, trains, and the
# install multicast all worked end to end.
#
# Usage: scripts/scale_smoke.sh   (from the repo root)
# Env:   SCALE_PEERS (default 600), SCALE_PER_SOCK (default 150),
#        SCALE_BASE_PORT (default 48300), SCALE_DURATION (default 45s)
set -euo pipefail

PEERS="${SCALE_PEERS:-600}"
PER_SOCK="${SCALE_PER_SOCK:-150}"
BASE_PORT="${SCALE_BASE_PORT:-48300}"
JOIN="127.0.0.1:$((BASE_PORT + 999))"
DUR="${SCALE_DURATION:-45s}"
HALF=$((PEERS / 2))

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
echo "---- peers file ----"
cat "$tmp/peers.txt"

# Wide shallow trees keep install messages per subtree small; the 2s window
# gives every sensor a slide to land in before the first result.
echo "query peers as count() from sensors window time 2s slide 2s trees 2 bf 32" > "$tmp/query.msl"

common=(-peers-file "$tmp/peers.txt" -msl "$tmp/query.msl")
"$tmp/mortard" "${common[@]}" -host "$HALF-$((PEERS - 1))" -join "$JOIN" -duration 180s \
  > "$tmp/worker.log" 2>&1 &
pids+=($!)
"$tmp/mortard" "${common[@]}" -host "0-$((HALF - 1))" -listen "$JOIN" -duration "$DUR" \
  > "$tmp/coord.log" 2>&1 &
coord=$!
pids+=("$coord")

ok=0
for _ in $(seq 1 120); do
  if grep -q "completeness=$PEERS" "$tmp/coord.log" 2>/dev/null; then
    ok=1
    break
  fi
  if ! kill -0 "$coord" 2>/dev/null; then
    break
  fi
  sleep 1
done

echo "---- coordinator log (head) ----"
head -40 "$tmp/coord.log"
if [ "$ok" != 1 ]; then
  dump_logs
  if grep -Eq "completeness=[1-9]" "$tmp/coord.log"; then
    echo "FAIL: completeness stayed partial: $(grep -Eo 'completeness=[0-9]+' "$tmp/coord.log" | sort -t= -k2 -n | tail -1)"
  else
    echo "FAIL: coordinator never reported completeness > 0"
  fi
  exit 1
fi
# The transport summary prints when the coordinator's -duration elapses;
# wait for it so the train counters can be judged — but bounded: a wedged
# coordinator must fail with logs, not hang CI.
deadline=$(( $(date +%s) + 120 ))
while kill -0 "$coord" 2>/dev/null; do
  if [ "$(date +%s)" -ge "$deadline" ]; then
    dump_logs
    echo "FAIL: coordinator still running long past its -duration"
    exit 1
  fi
  sleep 2
done
wait "$coord" 2>/dev/null || true
echo "---- coordinator transport summary ----"
tail -6 "$tmp/coord.log"
if ! grep -q "planned from gossiped coordinates: true" "$tmp/coord.log"; then
  dump_logs
  echo "FAIL: the bounded gossip did not cover the federation — planning fell back to the local embedding"
  exit 1
fi
sockets_line="$(grep '# udp sockets:' "$tmp/coord.log" | tail -1)"
if ! grep -Eq "sockets=[0-9]+ datagrams=[0-9]+ trains=[1-9]" <<< "$sockets_line"; then
  dump_logs
  echo "FAIL: coordinator's writers packed no trains"
  exit 1
fi
field() { sed -En "s/.* $1=([0-9]+).*/\1/p" <<< "$sockets_line"; }
datagrams="$(field datagrams)"
# Every frame left in a train or as a bare datagram of its own.
frames=$(( $(field train_frames) + datagrams - $(field trains) ))
per_dgram="$(awk -v f="$frames" -v d="$datagrams" 'BEGIN { printf "%.1f", f / d }')"
echo "OK: $PEERS peers over $((PEERS / PER_SOCK)) shared sockets reached completeness=$PEERS from gossip-planned trees; coordinator wrote $frames frames in $datagrams datagrams ($per_dgram per datagram)"
