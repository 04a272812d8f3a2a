#!/bin/sh
# Supervisor crash-injection smoke, through the posec CLI.
#
# Every squares worker is SIGKILLed at its first instruction-selection
# application, retried, quarantined and degraded (exit 7; the messages
# and the next sweep's exit 8 are pinned by posec_supervise_*). This
# script checks what those tests do not: the quarantine record is on
# disk, and the clean function enumerated through the faulted sweep
# renders byte-identical to a fault-free run.
#
# Usage: supervise.sh POSEC SOURCE.mc WORKDIR
set -eu
posec=$1 src=$2 work=$3
fail() { echo "FAIL: $*" >&2; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work"

"$posec" "$src" --dot=main --budget=50000 --store=store-clean > clean-main.dot
rc=0
"$posec" "$src" --supervise --budget=50000 --store=store-faulted \
  --inject-fault=s:1:kill --fault-func=squares --max-retries=1 \
  > sweep.txt 2>&1 || rc=$?
cat sweep.txt
[ "$rc" = 7 ] || fail "the faulted sweep exited $rc, not 7 (WorkerCrash)"
ls store-faulted/*.quarantine.pose || fail "no quarantine record was written"
"$posec" "$src" --dot=main --budget=50000 --store=store-faulted \
  > faulted-main.dot 2> dot-stderr.txt
grep -q "reusing cached DAG" dot-stderr.txt ||
  fail "the DOT run did not read main's stored DAG"
cmp clean-main.dot faulted-main.dot ||
  fail "main's DAG from the faulted sweep differs from a fault-free run"
