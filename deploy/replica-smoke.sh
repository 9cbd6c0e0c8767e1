#!/usr/bin/env bash
# Independent-replica smoke test: starts three plain buspower servers
# (no coordination between them, as deploy/docker-compose.yml runs
# them), sends one request set to each as concurrent `buspower eval`
# clients (the typed SDK, pkg/buspowersdk) and compares every answer
# byte for byte across replicas. Then it kills one replica and checks
# that the two survivors still answer with the same bytes. Exits
# non-zero on any divergence or failed request.
#
# Usage: deploy/replica-smoke.sh [path-to-buspower-binary]
set -euo pipefail

BIN=${1:-/tmp/buspower}
BASE_PORT=${BASE_PORT:-8461}
CONC=8 # clients in flight against one replica
WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

url() { echo "http://127.0.0.1:$((BASE_PORT + $1))"; }

for i in 0 1 2; do
  "$BIN" serve -addr "127.0.0.1:$((BASE_PORT + i))" -workers 2 \
    -no-disk-cache -quiet-access-log >"$WORK/r$i.log" 2>&1 &
  PIDS[i]=$!
done
for i in 0 1 2; do
  for _ in $(seq 1 50); do
    curl -sf "$(url "$i")/healthz" >/dev/null && break
    sleep 0.2
  done
  curl -sf "$(url "$i")/healthz" | grep -q '"ok"'
done

# add_bodies SEED: twelve random-trace lengths, each under two schemes,
# as "LENGTH SCHEME" pairs.
bodies=()
add_bodies() {
  for n in $(seq 1 12); do
    bodies+=("$((n * 500 + $1)) gray" "$((n * 500 + $1)) businvert")
  done
}

# reap REPLICA: wait for one client against REPLICA; fail with every
# client error printed if it failed.
reap() {
  wait -n && return
  echo "FAIL: an eval against replica $1 failed:" >&2
  cat "$WORK"/err."$1".* >&2
  exit 1
}

# send REPLICA...: evaluate every body on each replica through
# concurrent SDK clients, at most CONC in flight, then cmp each answer
# against the first answer any replica gave for that body.
send() {
  local i k n scheme running
  for i in "$@"; do
    running=0
    for k in "${!bodies[@]}"; do
      read -r n scheme <<<"${bodies[$k]}"
      "$BIN" eval -server "$(url "$i")" -random "$n" -scheme "$scheme" \
        >"$WORK/resp.$i.$k" 2>"$WORK/err.$i.$k" &
      running=$((running + 1))
      if [ "$running" -ge "$CONC" ]; then
        reap "$i"
        running=$((running - 1))
      fi
    done
    for _ in $(seq 1 "$running"); do reap "$i"; done
    for k in "${!bodies[@]}"; do
      out="$WORK/resp.$i.$k"
      [ -e "$WORK/ref.$k" ] || cp "$out" "$WORK/ref.$k"
      cmp -s "$WORK/ref.$k" "$out" || {
        echo "FAIL: replica $i diverged on ${bodies[$k]}" >&2
        exit 1
      }
    done
  done
}

add_bodies 0
send 0 1 2
echo "all replicas up: ${#bodies[@]} bodies x 3 replicas byte-identical"

# Kill one replica, then resend the set plus fresh bodies no replica
# has cached, so the survivors compute as well as replay.
kill "${PIDS[2]}"
wait "${PIDS[2]}" 2>/dev/null || true
unset 'PIDS[2]'
add_bodies 101
send 0 1
echo "replica 2 killed: ${#bodies[@]} bodies x 2 survivors byte-identical"
echo "replica smoke passed"
