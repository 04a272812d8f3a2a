#!/bin/sh
# posed load smoke, through the posed and posed-client CLIs.
#
# Four client processes send 224 concurrent requests of four shapes to
# one daemon. Every response must be byte-identical to a one-shot
# storeless posec run, and identical requests must be computed once
# (computed=4, and three stored DAGs: the --run request stores nothing).
# A SIGTERM with a request in flight must still answer that request, exit
# 0 and leave a store that passes --fsck.
#
# Usage: serve.sh POSEC POSED POSED-CLIENT SOURCE.mc WORKDIR
set -eu
posec=$1 posed=$2 client=$3 src=$4 work=$5
fail() { echo "FAIL: $*" >&2; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work"

# sun_path holds at most 107 bytes, so the socket lives under /tmp.
sockdir=$(mktemp -d /tmp/posed-smoke.XXXXXX)
sock=$sockdir/posed.sock
daemon=
cleanup() {
  if [ -n "$daemon" ]; then kill -9 "$daemon" 2>/dev/null || true; fi
  rm -rf "$sockdir"
}
trap cleanup EXIT

"$posed" --socket="$sock" --store=store-serve --max-jobs=4 > posed.log 2>&1 &
daemon=$!
tries=0
until "$client" --socket="$sock" --ping > /dev/null 2>&1; do
  tries=$((tries + 1))
  [ "$tries" -lt 100 ] || fail "posed did not answer a ping within 10 s"
  sleep 0.1
done

# Two workload enumerations, a DAG render and a simulation. Their stdout
# does not depend on the daemon's store, so every served response must
# match a one-shot storeless posec run.
req1="--workload=bitcount --enumerate=bit_count --budget=50000"
req2="--workload=sha --enumerate=sha_transform --budget=20000"
req3="$src --dot=squares"
req4="$src --run"
# $args is split into words on purpose.
for n in 1 2 3 4; do
  eval "args=\$req$n"
  "$posec" $args > ref-$n.txt
done
# 4 client processes x 8 connections x 56 requests = 224 concurrent
# requests hammering one daemon.
pids=
for n in 1 2 3 4; do
  eval "args=\$req$n"
  "$client" --socket="$sock" --connections=8 --count=56 --out=out-$n.txt \
    -- $args &
  pids="$pids $!"
done
for pid in $pids; do
  wait "$pid" || fail "a load client failed"
done
for n in 1 2 3 4; do
  cmp ref-$n.txt out-$n.txt ||
    fail "request $n: the served stdout differs from one-shot posec"
done

# Dedup: one posec child per distinct command line, and one stored DAG
# per enumeration.
stats=$("$client" --socket="$sock" --stats)
echo "$stats"
echo "$stats" | grep -q "computed=4 " ||
  fail "224 requests of 4 shapes were not computed exactly 4 times"
echo "$stats" | grep -q "errors=0 " || fail "the daemon counted errors"
stored=$(ls store-serve/*.result.pose | wc -l)
[ "$stored" -eq 3 ] || fail "$stored stored results, not 3"

# Graceful drain: SIGTERM with a request in flight.
"$client" --socket="$sock" --quiet \
  -- --workload=dijkstra --enumerate=dijkstra --budget=400000 \
  > drain-out.txt &
drainer=$!
sleep 0.2
kill -TERM "$daemon"
wait "$drainer" || fail "the in-flight request failed during the drain"
[ -s drain-out.txt ] || fail "the in-flight request got an empty response"
rc=0
wait "$daemon" || rc=$?
daemon=
cat posed.log
[ "$rc" = 0 ] || fail "posed exited $rc after SIGTERM, not 0"
"$posec" --fsck --store=store-serve ||
  fail "the store does not pass --fsck after the drain"
