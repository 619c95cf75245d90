#!/bin/sh
# SIGKILL mid-run loses at most the waves since the last checkpoint: kill
# `lcdc mc` as soon as its first wave checkpoint exists, then resume it to
# the uninterrupted run's totals.
#
#   sh sigkill_resume.sh <path-to-lcdc> <work-dir>
lcdc=$1
rm -rf "$2" && mkdir -p "$2" && cd "$2" || exit 1

"$lcdc" mc --procs 3 --blocks 1 --checkpoint kill.d --checkpoint-every 1 &
pid=$!
until [ -f kill.d/MANIFEST ]; do
  kill -0 "$pid" 2>/dev/null || { echo "exited before checkpointing"; exit 1; }
  sleep 0.01
done
kill -KILL "$pid"
wait "$pid"
code=$?
echo "exit=$code (want 137)"
[ "$code" -eq 137 ] || exit 1

"$lcdc" mc --procs 3 --blocks 1 --resume kill.d > resumed.out
code=$?
cat resumed.out
[ "$code" -eq 0 ] &&
  grep -q 'states: 180610 (resumed), transitions: 674502' resumed.out
