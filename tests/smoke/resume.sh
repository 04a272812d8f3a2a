#!/bin/sh
# Kill-and-resume smoke of the artifact store, through the posec CLI.
#
# A 1 ms deadline interrupts the enumeration, which stores its partial
# DAG; each rerun, with the deadline doubled, must report continuing that
# partial DAG, so even a slow host converges (the deadline is an execution
# knob, not part of the cache fingerprint). The finished DAG, rendered
# through the store, must be byte-identical to a storeless run. Done at
# --jobs=1 and --jobs=4.
#
# Usage: resume.sh POSEC SOURCE.mc WORKDIR
set -eu
posec=$1 src=$2 work=$3
fail() { echo "FAIL: $*" >&2; exit 1; }
rm -rf "$work" && mkdir -p "$work" && cd "$work"

"$posec" "$src" --dot=squares > clean.dot
for jobs in 1 4; do
  store=store-j$jobs deadline=1 tries=0
  while :; do
    tries=$((tries + 1))
    [ "$tries" -le 24 ] || fail "jobs=$jobs: the deadline ladder did not converge"
    out=$("$posec" "$src" --enumerate=squares --jobs=$jobs \
          --deadline-ms=$deadline --store=$store 2>&1) ||
      fail "jobs=$jobs: posec failed: $out"
    echo "deadline=${deadline}ms jobs=$jobs:"; echo "$out"
    if [ "$tries" -gt 1 ]; then
      case $out in *"continuing the stored partial DAG"*) ;;
        *) fail "jobs=$jobs: a rerun did not continue the stored partial DAG" ;;
      esac
    fi
    case $out in *"exhaustively enumerated"*) break ;; esac
    case $out in *"checkpoint saved"*) ;;
      *) fail "jobs=$jobs: an interrupted run saved no checkpoint" ;; esac
    deadline=$((deadline * 2))
  done
  "$posec" "$src" --dot=squares --jobs=$jobs --store=$store \
    > resumed.dot 2> dot-stderr.txt
  grep -q "reusing cached DAG" dot-stderr.txt ||
    fail "jobs=$jobs: the DOT run did not read the stored DAG"
  cmp clean.dot resumed.dot ||
    fail "jobs=$jobs: the resumed DAG differs from a storeless run"
done
