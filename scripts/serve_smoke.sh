#!/usr/bin/env bash
# serve_smoke.sh — end-to-end daemon smoke test.
#
# Starts ffetd, fires the same sweep from two concurrent clients, and
# asserts:
#   1. byte-identity: both daemon responses equal the offline -oneshot
#      reference (which shares only the config mapping and Summary
#      encoding with the daemon path);
#   2. coalescing: the two clients built each staged checkpoint exactly
#      once between them (misses == 2 on /debug/stats);
#   3. validation: a CFET flow with backside signal layers is refused with
#      400 invalid-config before admission (requests.accepted and
#      checkpoint.misses unchanged), and -oneshot refuses, before running
#      any flow, a sweep wider than its -workers + -queue admit at once;
#   4. graceful shutdown: SIGTERM drains and the process exits 0.
#
# Usage: scripts/serve_smoke.sh [port]   (default 18077)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18077}"
ADDR="127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
FFETD_PID=""
cleanup() {
  [[ -n "${FFETD_PID}" ]] && kill -9 "${FFETD_PID}" 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

echo "== build ffetd =="
go build -o "${WORK}/ffetd" ./cmd/ffetd

cat > "${WORK}/req.json" <<'EOF'
{"sweep":{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.72},"axis":"back_pins","values":[0.2,0.5,0.8]}}
EOF

echo "== offline reference (-oneshot) =="
"${WORK}/ffetd" -oneshot "${WORK}/req.json" -scale quick > "${WORK}/offline.json"

echo "== -oneshot refuses a sweep wider than -workers + -queue =="
cat > "${WORK}/wide.json" <<'EOF'
{"sweep":{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.72},"axis":"back_pins","values":[0.2,0.4,0.6,0.8]}}
EOF
if "${WORK}/ffetd" -oneshot "${WORK}/wide.json" -scale quick -workers 1 -queue 2 \
    > "${WORK}/wide.out" 2> "${WORK}/wide.err"; then
  echo "-oneshot ran a 4-value sweep at -workers 1 -queue 2: $(cat "${WORK}/wide.out")" >&2
  exit 1
fi
if [[ -s "${WORK}/wide.out" ]] || ! grep -q "more than the 3 units" "${WORK}/wide.err"; then
  echo "-oneshot 4-value sweep: want the width refusal and no output, got: $(cat "${WORK}/wide.out" "${WORK}/wide.err")" >&2
  exit 1
fi
echo "4-value sweep refused: $(cat "${WORK}/wide.err")"

echo "== start daemon on ${ADDR} =="
"${WORK}/ffetd" -addr "${ADDR}" -scale quick -drain 20s &
FFETD_PID=$!
for i in $(seq 1 100); do
  if curl -sf "http://${ADDR}/healthz" > /dev/null 2>&1; then break; fi
  if ! kill -0 "${FFETD_PID}" 2>/dev/null; then
    echo "ffetd died during startup" >&2; exit 1
  fi
  sleep 0.1
  [[ "$i" == 100 ]] && { echo "ffetd never became healthy" >&2; exit 1; }
done

echo "== two concurrent clients, same sweep =="
BODY="$(jq -c .sweep "${WORK}/req.json")"
curl -sf -X POST -d "${BODY}" "http://${ADDR}/v1/sweep" > "${WORK}/client1.json" &
C1=$!
curl -sf -X POST -d "${BODY}" "http://${ADDR}/v1/sweep" > "${WORK}/client2.json" &
C2=$!
wait "${C1}" "${C2}"

for c in client1 client2; do
  if ! cmp -s "${WORK}/${c}.json" "${WORK}/offline.json"; then
    echo "${c} response differs from offline reference:" >&2
    diff "${WORK}/offline.json" "${WORK}/${c}.json" >&2 || true
    exit 1
  fi
done
echo "both clients byte-identical to the offline path"

echo "== checkpoint sharing =="
STATS="$(curl -sf "http://${ADDR}/debug/stats")"
echo "${STATS}"
MISSES="$(echo "${STATS}" | jq .checkpoint.misses)"
SHARED="$(echo "${STATS}" | jq '.checkpoint.hits + .checkpoint.coalesced')"
if [[ "${MISSES}" != 2 ]]; then
  echo "expected exactly 2 checkpoint builds (one synth root, one prefix), got ${MISSES}" >&2
  exit 1
fi
if [[ "${SHARED}" -lt 1 ]]; then
  echo "no checkpoint reuse between the two clients (hits+coalesced=${SHARED})" >&2
  exit 1
fi
echo "2 builds, ${SHARED} shared checkpoint accesses across 2 clients x 3 points"

echo "== warm frequency-axis sweep takes the diff-chain path =="
cat > "${WORK}/freq.json" <<'EOF'
{"sweep":{"base":{"front":4,"back":4,"target_ghz":1.4,"util":0.72,"back_pins":0.5},"axis":"target_ghz","values":[1.4,1.403,1.406]}}
EOF
"${WORK}/ffetd" -oneshot "${WORK}/freq.json" -scale quick > "${WORK}/freq-offline.json"
FREQBODY="$(jq -c .sweep "${WORK}/freq.json")"
curl -sf -X POST -d "${FREQBODY}" "http://${ADDR}/v1/sweep" > "${WORK}/freq-daemon.json"
if ! cmp -s "${WORK}/freq-daemon.json" "${WORK}/freq-offline.json"; then
  echo "diff-chained sweep differs from offline reference:" >&2
  diff "${WORK}/freq-offline.json" "${WORK}/freq-daemon.json" >&2 || true
  exit 1
fi
STATS="$(curl -sf "http://${ADDR}/debug/stats")"
DIFF_FORKS="$(echo "${STATS}" | jq .sweep.diff_forks)"
if [[ "${DIFF_FORKS}" -lt 1 ]]; then
  echo "warm target_ghz sweep never took the synth-diff path: $(echo "${STATS}" | jq .sweep)" >&2
  exit 1
fi
echo "diff-chained sweep byte-identical, sweep counters: $(echo "${STATS}" | jq -c .sweep)"

echo "== impossible pattern refused before admission =="
BEFORE="$(curl -sf "http://${ADDR}/debug/stats")"
CODE="$(curl -s -o "${WORK}/cfet.json" -w '%{http_code}' -X POST \
  -d '{"arch":"CFET","front":4,"back":4,"target_ghz":1.4,"util":0.72}' "http://${ADDR}/v1/flow")"
KIND="$(jq -r .error.kind "${WORK}/cfet.json")"
if [[ "${CODE}" != 400 || "${KIND}" != invalid-config ]]; then
  echo "CFET FM4BM4 flow: want 400 invalid-config, got ${CODE}: $(cat "${WORK}/cfet.json")" >&2
  exit 1
fi
AFTER="$(curl -sf "http://${ADDR}/debug/stats")"
for F in .requests.accepted .checkpoint.misses; do
  B="$(echo "${BEFORE}" | jq "${F}")"
  A="$(echo "${AFTER}" | jq "${F}")"
  if [[ "${B}" != "${A}" ]]; then
    echo "refused CFET FM4BM4 flow moved ${F}: ${B} -> ${A}" >&2
    exit 1
  fi
done
echo "CFET FM4BM4 refused with 400 invalid-config; nothing admitted or built"

echo "== graceful shutdown =="
kill -TERM "${FFETD_PID}"
wait "${FFETD_PID}"
FFETD_PID=""
echo "serve smoke: OK"
