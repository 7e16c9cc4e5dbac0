#!/usr/bin/env bash
# Multi-process smoke: build mortard, write a temp peers file, launch a
# coordinator plus two workers over localhost UDP (three real processes,
# every message a real datagram), and assert the coordinator's count query
# reaches full completeness — the simulator's baseline, where every
# peer's sensor contributes to the window. Every process gossips Vivaldi
# coordinates, so planning comes from them and convergence is logged.
#
# The run deliberately squeezes the MTU (-mtu 160) and gives the query a
# name a few hundred bytes long. Split 16 ways, 12 peers make one-member
# install components of about 70 bytes; the name, carried in every
# install's metadata, pushes each past one datagram, so the install
# multicast only reaches the workers through netrt's fragmentation +
# reassembly path, proving it end-to-end across real processes. The
# coordinator's transport summary must report fragment streams.
#
# The coordinator also runs -serve: the smoke installs a second query over
# plain HTTP with curl, reads three windows from its NDJSON stream, removes
# both queries, and asserts the list endpoint empties — the serving plane
# exercised end-to-end across real processes. Before the removal it reads
# /v1/stats: windows must have left the root on completeness and under a
# tenth of the coordinator's staged summaries may have been relayed — the
# subtree counts of the install crossed the process boundary. A worker that
# decoded its install without them would sit on its timer, and its summaries
# would reach the coordinator's operators after their windows had left.
#
# The coordinator starts 1.5 s after its workers, not a whole number of
# the query's 1 s windows: each process's clock counts from its own
# start, so a worker indexing windows against any clock reading but the
# install's age would sit half a window off the coordinator's frame, which
# re-indexing by age cannot hide.
#
# Usage: scripts/multiproc_smoke.sh   (from the repo root)
# Env:   SMOKE_BASE_PORT (default 47300), SMOKE_DURATION (default 45s)
set -euo pipefail

PEERS=12
BASE_PORT="${SMOKE_BASE_PORT:-47300}"
JOIN="127.0.0.1:$((BASE_PORT + 99))"
GW="127.0.0.1:$((BASE_PORT + 98))"
DUR="${SMOKE_DURATION:-45s}"
MTU=160
# The query's name: "peers_" and 250 x's, so every install exceeds the MTU.
printf -v pad '%250s' ''
QUERY="peers_${pad// /x}"

tmp="$(mktemp -d)"
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$tmp"
}
trap cleanup EXIT

dump_logs() {
  echo "---- coordinator log ----"
  cat "$tmp/coord.log" 2>/dev/null || true
  echo "---- worker 1 log ----"
  cat "$tmp/w1.log" 2>/dev/null || true
  echo "---- worker 2 log ----"
  cat "$tmp/w2.log" 2>/dev/null || true
}

go build -o "$tmp/mortard" ./cmd/mortard
for i in $(seq 0 $((PEERS - 1))); do
  echo "127.0.0.1:$((BASE_PORT + i))"
done > "$tmp/peers.txt"

echo "query $QUERY as count() from sensors window time 1s slide 1s trees 6 bf 2" > "$tmp/query.msl"

# Workers outlive the coordinator's -duration; its hang-up ends their run.
"$tmp/mortard" -peers-file "$tmp/peers.txt" -host 4-7 -join "$JOIN" -mtu "$MTU" -msl "$tmp/query.msl" -duration 90s > "$tmp/w1.log" 2>&1 &
pids+=($!)
"$tmp/mortard" -peers-file "$tmp/peers.txt" -host 8-11 -join "$JOIN" -mtu "$MTU" -msl "$tmp/query.msl" -duration 90s > "$tmp/w2.log" 2>&1 &
pids+=($!)
sleep 1.5
"$tmp/mortard" -peers-file "$tmp/peers.txt" -host 0-3 -listen "$JOIN" -mtu "$MTU" -msl "$tmp/query.msl" -duration "$DUR" -serve "$GW" > "$tmp/coord.log" 2>&1 &
coord=$!
pids+=("$coord")

ok=0
for _ in $(seq 1 90); do
  if grep -q "completeness=$PEERS" "$tmp/coord.log" 2>/dev/null; then
    ok=1
    break
  fi
  if ! kill -0 "$coord" 2>/dev/null; then
    break
  fi
  sleep 1
done

# --- serving plane: install a query over HTTP, stream it, remove both ---
gw_ok=0
if [ "$ok" = 1 ]; then
  if ! curl -fsS -X POST "http://$GW/v1/queries" \
      -d '{"name":"gw","op":"count","window_ms":1000,"trees":2,"bf":4}' > "$tmp/gw.log" 2>&1; then
    echo "FAIL: HTTP install through the gateway failed"; cat "$tmp/gw.log"; dump_logs; exit 1
  fi
  # Read three windows from the NDJSON stream (blocks until they arrive).
  if ! timeout 60 curl -fsS -N "http://$GW/v1/queries/gw/results?limit=3" > "$tmp/stream.log" 2>&1; then
    echo "FAIL: result stream did not deliver"; cat "$tmp/stream.log"; dump_logs; exit 1
  fi
  windows="$(grep -c '"query":"gw"' "$tmp/stream.log" || true)"
  if [ "$windows" -lt 3 ]; then
    echo "FAIL: stream served $windows windows, want >= 3"; cat "$tmp/stream.log"; dump_logs; exit 1
  fi
  stats="$(curl -fsS "http://$GW/v1/stats")"
  stat() { echo "$stats" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2; }
  complete="$(stat results_reported_complete)"
  staged="$(stat summaries_staged)"
  relayed="$(stat relayed)"
  if [ "${complete:-0}" -le 0 ] || [ "${staged:-0}" -le 0 ] || [ $((10 * ${relayed:-0})) -ge "${staged:-0}" ]; then
    echo "FAIL: results_reported_complete=${complete:-?} summaries_staged=${staged:-?} relayed=${relayed:-?}:" \
      "want windows reported on completeness and relayed < 10% of staged"
    echo "$stats"; dump_logs; exit 1
  fi
  curl -fsS -X DELETE "http://$GW/v1/queries/gw" > /dev/null
  curl -fsS -X DELETE "http://$GW/v1/queries/$QUERY" > /dev/null
  if [ "$(curl -fsS "http://$GW/v1/queries")" != "[]" ]; then
    echo "FAIL: list endpoint not empty after removing every query"
    curl -fsS "http://$GW/v1/queries"; dump_logs; exit 1
  fi
  gw_ok=1
fi

if [ "$ok" != 1 ]; then
  dump_logs
  echo "FAIL: coordinator never reported completeness=$PEERS"
  exit 1
fi
echo "---- coordinator log ----"
cat "$tmp/coord.log"
if ! grep -q "planned from gossiped coordinates: true" "$tmp/coord.log"; then
  dump_logs
  echo "FAIL: planning did not use gossiped Vivaldi coordinates"
  exit 1
fi
# The transport summary (with the fragmentation counters) prints when the
# coordinator's -duration elapses; wait for it before judging — but
# bounded, so a wedged coordinator fails with logs instead of hanging CI.
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
if ! grep -Eq "frag streams=[1-9]" "$tmp/coord.log"; then
  echo "---- coordinator transport summary missing fragmentation ----"
  tail -3 "$tmp/coord.log"
  dump_logs
  echo "FAIL: coordinator never fragmented a frame — the install fit the squeezed MTU"
  exit 1
fi
if [ "$gw_ok" != 1 ]; then
  echo "FAIL: serving-plane checks never ran"
  exit 1
fi
echo "OK: multi-process run reached completeness=$PEERS from gossip-planned trees, installs crossed the fragmentation path, operators forwarded on completeness (complete=$complete staged=$staged relayed=$relayed), and the gateway served install/stream/remove over HTTP"
