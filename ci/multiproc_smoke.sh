#!/usr/bin/env bash
# Multi-process smoke test for the TCP rank backend: build steinersvc and
# rankd, start a coordinator with 4 real rankd worker processes on
# localhost, solve a set of queries over the wire, and require the answers
# to be byte-identical (solver-output fields) to an in-process steinersvc
# serving the same graph — plus nonzero transport counters in /stats,
# proving the queries actually crossed TCP, and phase 3-5 merge counters
# equal to the in-process service's.
#
# Run from the repo root: ./ci/multiproc_smoke.sh
set -euo pipefail

DATASET="${DATASET:-LVJ}"
SCALE="${SCALE:-0.02}"
RANKS=4
WORKERS=4
COORD=127.0.0.1:7611
TCP_HTTP=127.0.0.1:8711
INPROC_HTTP=127.0.0.1:8712
QUERIES=("1,2,3" "5,9,13,21" "0,7" "2,4,8,16,32")

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  # The respawned rankd is not this shell's child, so wait cannot reap it:
  # poll until every pid is gone, for about 5 s at most.
  for _ in $(seq 1 50); do
    local alive=0
    for pid in "${pids[@]:-}"; do
      if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        alive=1
      fi
    done
    [ "$alive" = 0 ] && break
    sleep 0.1
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building"
go build -o "$workdir/steinersvc" ./cmd/steinersvc
go build -o "$workdir/rankd" ./cmd/rankd

echo "== starting tcp coordinator + $WORKERS rankd workers"
"$workdir/steinersvc" -dataset "$DATASET" -scale "$SCALE" -ranks $RANKS \
  -backend tcp -workers $WORKERS -rank-listen "$COORD" \
  -addr "$TCP_HTTP" -cache 0 -jobs 0 >"$workdir/tcp.log" 2>&1 &
pids+=($!)
for i in $(seq 1 $WORKERS); do
  "$workdir/rankd" -coordinator "$COORD" -retry 30s >"$workdir/rankd$i.log" 2>&1 &
  pids+=($!)
done

echo "== starting inproc reference"
"$workdir/steinersvc" -dataset "$DATASET" -scale "$SCALE" -ranks $RANKS \
  -addr "$INPROC_HTTP" -cache 0 -jobs 0 >"$workdir/inproc.log" 2>&1 &
pids+=($!)

wait_http() {
  local base=$1 name=$2
  for _ in $(seq 1 120); do
    if curl -fsS "http://$base/info" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.5
  done
  echo "FAIL: $name never answered /info" >&2
  tail -n 40 "$workdir"/*.log >&2 || true
  exit 1
}
wait_http "$INPROC_HTTP" "inproc steinersvc"
wait_http "$TCP_HTTP" "tcp steinersvc (coordinator + workers)"

backend=$(curl -fsS "http://$TCP_HTTP/info" | jq -r .backend)
if [ "$backend" != "tcp" ]; then
  echo "FAIL: coordinator /info reports backend=$backend, want tcp" >&2
  exit 1
fi

echo "== solving ${#QUERIES[@]} queries on both backends"
for seeds in "${QUERIES[@]}"; do
  # Compare only solver output: seeds, edges, total, steinerVertices.
  # Phase timings legitimately differ between backends.
  tcp_out=$(curl -fsS "http://$TCP_HTTP/solve?seeds=$seeds" |
    jq -S '{seeds, edges, total, steinerVertices}')
  inproc_out=$(curl -fsS "http://$INPROC_HTTP/solve?seeds=$seeds" |
    jq -S '{seeds, edges, total, steinerVertices}')
  if [ "$tcp_out" != "$inproc_out" ]; then
    echo "FAIL: seeds=$seeds differ between backends" >&2
    diff <(echo "$inproc_out") <(echo "$tcp_out") >&2 || true
    exit 1
  fi
  echo "   seeds=$seeds OK ($(echo "$tcp_out" | jq -r .total) total distance)"
done

echo "== solving one forest and one prize query on both backends"
# Mode queries go over POST /v1/solve and cross the wire as SolveSpec
# frames, like tree queries. Compare the full mode output: group subtrees,
# skipped set, penalties, objective.
MODE_QUERIES=(
  '{"mode":"forest","groups":[[1,2,3],[5,9],[20,21]]}'
  '{"mode":"prize","seeds":[0,7,32],"penalties":[4,100000,100000]}'
)
for body in "${MODE_QUERIES[@]}"; do
  mode=$(echo "$body" | jq -r .mode)
  tcp_out=$(curl -fsS -d "$body" "http://$TCP_HTTP/v1/solve" |
    jq -S '{seeds, edges, total, steinerVertices, mode, groups, groupEdges, skipped, paidPenalty, objective}')
  inproc_out=$(curl -fsS -d "$body" "http://$INPROC_HTTP/v1/solve" |
    jq -S '{seeds, edges, total, steinerVertices, mode, groups, groupEdges, skipped, paidPenalty, objective}')
  if [ "$tcp_out" != "$inproc_out" ]; then
    echo "FAIL: $mode query differs between backends" >&2
    diff <(echo "$inproc_out") <(echo "$tcp_out") >&2 || true
    exit 1
  fi
  echo "   mode=$mode OK (objective $(echo "$tcp_out" | jq -r .objective))"
done

echo "== solving one mixed tree/forest/prize batch on both backends"
# POST /solve/batch answers each item through the same solve path as
# /v1/solve. Build one batch from the queries above and compare every
# item's solver fields.
BATCH_BODY=$({
  for seeds in "${QUERIES[@]}"; do echo "{\"seeds\":[$seeds]}"; done
  printf '%s\n' "${MODE_QUERIES[@]}"
} | jq -sc '{queries: .}')
BATCH_FIELDS='[.results[] | if has("error") then {error} else .result | {seeds, edges, total, steinerVertices, mode, groups, groupEdges, skipped, paidPenalty, objective} end]'
tcp_out=$(curl -fsS -d "$BATCH_BODY" "http://$TCP_HTTP/solve/batch" | jq -S "$BATCH_FIELDS")
inproc_out=$(curl -fsS -d "$BATCH_BODY" "http://$INPROC_HTTP/solve/batch" | jq -S "$BATCH_FIELDS")
if [ "$tcp_out" != "$inproc_out" ]; then
  echo "FAIL: batch items differ between backends" >&2
  diff <(echo "$inproc_out") <(echo "$tcp_out") >&2 || true
  exit 1
fi
items=$(echo "$tcp_out" | jq length)
failed=$(echo "$tcp_out" | jq '[.[] | select(has("error"))] | length')
if [ "$items" != "$(echo "$BATCH_BODY" | jq '.queries | length')" ] || [ "$failed" != "0" ]; then
  echo "FAIL: batch answered $items items, $failed failed: $tcp_out" >&2
  exit 1
fi
echo "   batch of $items OK"
# Every tree and mode query has been answered and compared twice so far:
# alone and in the batch.
COMPARED=$((2 * (${#QUERIES[@]} + ${#MODE_QUERIES[@]})))

echo "== checking transport counters"
stats=$(curl -fsS "http://$TCP_HTTP/stats")
bytes_out=$(echo "$stats" | jq -r .transport.bytesOut)
frames_out=$(echo "$stats" | jq -r .transport.framesOut)
if [ "$bytes_out" -le 0 ] || [ "$frames_out" -le 0 ]; then
  echo "FAIL: tcp backend reports no wire traffic: $stats" >&2
  exit 1
fi
# The workers' suppressed-offer counts (the ghost-row filter) must cross the
# fleet into the coordinator's /stats.
suppressed=$(echo "$stats" | jq -r .broadcasts.suppressed)
if [ "$suppressed" -le 0 ]; then
  echo "FAIL: tcp backend reports no suppressed offers: $stats" >&2
  exit 1
fi
inproc_bytes=$(curl -fsS "http://$INPROC_HTTP/stats" | jq -r .transport.bytesOut)
if [ "$inproc_bytes" != "0" ]; then
  echo "FAIL: inproc backend reports wire traffic ($inproc_bytes bytes)" >&2
  exit 1
fi
echo "   $COMPARED queries moved $frames_out frames / $bytes_out bytes over TCP"
echo "   the ghost-row filter suppressed $suppressed offers across the fleet"

echo "== checking fragment-merge MST counters"
# Every query above ran the fragment merge, so rounds and
# payload must be nonzero. Both services have answered the same query list
# on the same rank layout, and phases 3-5 run the same collectives wherever
# the ranks live: the merge payload and record counts must be equal.
frag_rounds=$(echo "$stats" | jq -r .mst.fragmentRounds)
frag_bytes=$(echo "$stats" | jq -r .mst.crossTableBytes)
if [ "$frag_rounds" -le 0 ] || [ "$frag_bytes" -le 0 ]; then
  echo "FAIL: fragment merge reports rounds=$frag_rounds crossTableBytes=$frag_bytes" >&2
  exit 1
fi
tcp_mst=$(echo "$stats" | jq -c '.mst | {crossTableBytes, fragmentMessages}')
inproc_mst=$(curl -fsS "http://$INPROC_HTTP/stats" | jq -c '.mst | {crossTableBytes, fragmentMessages}')
if [ "$tcp_mst" != "$inproc_mst" ]; then
  echo "FAIL: merge traffic differs between backends: tcp=$tcp_mst inproc=$inproc_mst" >&2
  exit 1
fi
echo "   fragment merge: $frag_rounds rounds, $tcp_mst on both backends"

echo "== comparing a tree query with a prize query on the same fleet"
# One high-terminal-count tree query (3/4 of the graph, deterministic seed
# selection), then a prize query over the same terminals whose penalties are
# too large to skip any. Both run the fragment merge over the same global
# cross-edge table - the prize query's records all routed to rank 0 - so the
# tree and the Borůvka round sequence must be the same; only the phase 3-4
# wire bytes differ.
mst_stat() { curl -fsS "http://$TCP_HTTP/stats" | jq -r ".mst.$1"; }
verts=$(curl -fsS "http://$TCP_HTTP/info" | jq -r .vertices)
K=$((verts * 3 / 4))
bytes0=$(mst_stat crossTableBytes)
rounds0=$(mst_stat fragmentRounds)
tree_resp=$(curl -fsS -d "{\"k\":$K,\"rngSeed\":7}" "http://$TCP_HTTP/solve")
tree_out=$(echo "$tree_resp" | jq -S '{seeds, edges, total, steinerVertices}')
bytes1=$(mst_stat crossTableBytes)
rounds1=$(mst_stat fragmentRounds)
PRIZE_BODY=$(echo "$tree_resp" | jq -c '{mode: "prize", seeds: .seeds, penalties: [.seeds[] | 1000000000]}')
prize_resp=$(curl -fsS -d "$PRIZE_BODY" "http://$TCP_HTTP/v1/solve")
prize_out=$(echo "$prize_resp" | jq -S '{seeds, edges, total, steinerVertices}')
tree_bytes=$((bytes1 - bytes0))
prize_bytes=$(($(mst_stat crossTableBytes) - bytes1))
tree_rounds=$((rounds1 - rounds0))
prize_rounds=$(($(mst_stat fragmentRounds) - rounds1))
if [ "$(echo "$prize_resp" | jq -r '.skipped | length')" != "0" ]; then
  echo "FAIL: k=$K prize query skipped terminals despite the penalties" >&2
  exit 1
fi
if [ "$tree_out" != "$prize_out" ]; then
  echo "FAIL: k=$K tree differs between the tree query and the prize query" >&2
  diff <(echo "$prize_out") <(echo "$tree_out") >&2 || true
  exit 1
fi
if [ "$tree_rounds" -le 0 ] || [ "$tree_rounds" != "$prize_rounds" ]; then
  echo "FAIL: k=$K fragment rounds: tree=$tree_rounds prize=$prize_rounds" >&2
  exit 1
fi
echo "   k=$K: $tree_rounds rounds each; cross-table bytes: tree=$tree_bytes prize=$prize_bytes"

echo "== starting recovering fleet for the kill/respawn check"
# Fault-tolerance end to end: a 4-worker fleet where one rankd is doomed
# (FAULTPOINTS=solve.phase3:exit kills its process at solver phase 3), the
# coordinator runs -recover with a -respawn-cmd that starts one replacement,
# and the survivors run -rejoin. The query that kills the worker must still
# answer — byte-identical to the inproc reference — after the coordinator
# heals the session and requeues it.
CHAOS_COORD=127.0.0.1:7613
CHAOS_HTTP=127.0.0.1:8714
cat >"$workdir/respawn.sh" <<EOF
#!/bin/sh
# Started by the coordinator on each detected fault; only the first
# invocation spawns (one worker died, one replacement is needed).
if [ -e "$workdir/respawned" ]; then exit 0; fi
touch "$workdir/respawned"
"$workdir/rankd" -coordinator "$CHAOS_COORD" -rejoin 30s \
  >"$workdir/respawn_rankd.log" 2>&1 &
echo \$! >"$workdir/respawn_rankd.pid"
EOF
chmod +x "$workdir/respawn.sh"
"$workdir/steinersvc" -dataset "$DATASET" -scale "$SCALE" -ranks $RANKS \
  -backend tcp -workers $WORKERS -rank-listen "$CHAOS_COORD" \
  -recover -rejoin-wait 30s -respawn-cmd "$workdir/respawn.sh" \
  -addr "$CHAOS_HTTP" -cache 0 -jobs 0 >"$workdir/chaos.log" 2>&1 &
pids+=($!)
for i in $(seq 1 $((WORKERS - 1))); do
  "$workdir/rankd" -coordinator "$CHAOS_COORD" -retry 30s -rejoin 30s \
    >"$workdir/chaos_rankd$i.log" 2>&1 &
  pids+=($!)
done
FAULTPOINTS=solve.phase3:exit "$workdir/rankd" -coordinator "$CHAOS_COORD" \
  -retry 30s >"$workdir/doomed_rankd.log" 2>&1 &
doomed_pid=$!
pids+=($doomed_pid)
wait_http "$CHAOS_HTTP" "recovering tcp steinersvc"

echo "== killing one rankd mid-solve (FAULTPOINTS=solve.phase3:exit)"
SEEDS="5,9,13,21"
inproc_out=$(curl -fsS "http://$INPROC_HTTP/solve?seeds=$SEEDS" |
  jq -S '{seeds, edges, total, steinerVertices}')
chaos_out=$(curl -fsS --max-time 120 "http://$CHAOS_HTTP/solve?seeds=$SEEDS" |
  jq -S '{seeds, edges, total, steinerVertices}')
if [ "$chaos_out" != "$inproc_out" ]; then
  echo "FAIL: recovered solve differs from inproc reference" >&2
  diff <(echo "$inproc_out") <(echo "$chaos_out") >&2 || true
  exit 1
fi
rc=0
wait "$doomed_pid" || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "FAIL: doomed rankd exited $rc, want faultpoint exit code 3" >&2
  tail -n 20 "$workdir/doomed_rankd.log" >&2 || true
  exit 1
fi
if [ ! -e "$workdir/respawned" ]; then
  echo "FAIL: coordinator never ran -respawn-cmd" >&2
  exit 1
fi
if [ -s "$workdir/respawn_rankd.pid" ]; then
  pids+=("$(cat "$workdir/respawn_rankd.pid")")
fi
echo "   worker died at phase 3 (exit 3), replacement respawned, answer byte-identical"

echo "== checking fault accounting and the healed fleet"
faults=$(curl -fsS "http://$CHAOS_HTTP/stats" | jq -S .faults)
detected=$(echo "$faults" | jq -r .detected)
heals=$(echo "$faults" | jq -r .heals)
rejoins=$(echo "$faults" | jq -r .rejoins)
retried=$(echo "$faults" | jq -r .retriedSolves)
if [ "$detected" -lt 1 ] || [ "$heals" -lt 1 ] || [ "$rejoins" -lt 1 ] || [ "$retried" -lt 1 ]; then
  echo "FAIL: recovery not accounted in /stats faults: $faults" >&2
  exit 1
fi
# The healed fleet must keep answering correctly.
healed_out=$(curl -fsS "http://$CHAOS_HTTP/solve?seeds=$SEEDS" |
  jq -S '{seeds, edges, total, steinerVertices}')
if [ "$healed_out" != "$inproc_out" ]; then
  echo "FAIL: healed fleet answers differently" >&2
  diff <(echo "$inproc_out") <(echo "$healed_out") >&2 || true
  exit 1
fi
echo "   faults: detected=$detected rejoins=$rejoins heals=$heals retriedSolves=$retried"

echo "PASS: tcp backend byte-identical to inproc across $COMPARED queries"
echo "PASS: one worker killed mid-solve, fleet healed, answer byte-identical"
