#!/bin/sh
# Sharded sweep, merge and repair smoke, through the posec CLI.
#
# Two --shard=K/2 sweeps, each with every worker's first commit torn
# between tmp-write and rename (--fault-io is execution-only, so the
# artifacts are keyed as a clean run's), merge into a store that is
# byte-identical to a single-host sweep and serves the same DAG. After
# one payload byte is damaged, --fsck --repair moves it to lost+found
# and a re-sweep regenerates the store byte for byte. (The exit codes of
# --fsck, --repair and a merge conflict are pinned by FsckCli.* and
# MergeCli.*.)
#
# Usage: merge.sh POSEC SOURCE.mc WORKDIR
set -eu
posec=$1 src=$2 work=$3
fail() { echo "FAIL: $*" >&2; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work"

"$posec" "$src" --supervise --budget=50000 --store=store-ref
"$posec" "$src" --dot=main --budget=50000 --store=store-ref > ref-main.dot
for k in 1 2; do
  "$posec" "$src" --supervise --shard=$k/2 --budget=50000 \
    --store=store-shard$k --fault-io=crash-before-rename:1 \
    --fault-attempts=1 --max-retries=2 ||
    fail "shard $k/2 did not recover from its torn commits"
done
"$posec" --merge-store=store-merged store-shard1 store-shard2
diff -r store-ref store-merged ||
  fail "the merged shards differ from the single-host store"
"$posec" "$src" --dot=main --budget=50000 --store=store-merged \
  > merged-main.dot 2> dot-stderr.txt
grep -q "reusing cached DAG" dot-stderr.txt ||
  fail "the DOT run did not read the merged store"
cmp ref-main.dot merged-main.dot ||
  fail "the merged store serves a different DAG"

# Flip payload byte 60 of one result.
victim=$(ls store-merged/*.result.pose | head -n 1)
byte=$(od -An -tu1 -j 60 -N 1 "$victim" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 255)))" |
  dd of="$victim" bs=1 seek=60 conv=notrunc 2> /dev/null
rc=0
"$posec" --fsck --store=store-merged || rc=$?
[ "$rc" = 9 ] || fail "--fsck exited $rc on a damaged store, not 9"
"$posec" --fsck --repair --store=store-merged ||
  fail "--fsck --repair did not restore the store"
ls store-merged/lost+found/* || fail "the damaged artifact was not moved aside"
"$posec" "$src" --supervise --budget=50000 --store=store-merged
diff -r --exclude=lost+found store-ref store-merged ||
  fail "the repaired and re-swept store differs from the single-host store"
