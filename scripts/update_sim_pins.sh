#!/usr/bin/env bash
# Regenerate the committed Sim-mode chaos pins (test/golden/chaos_sim.txt):
# the stdout and exit code of every distinct Sim-mode `chaos` command
# the CI workflow runs, honest campaigns and their sabotage twins alike.
#
# Sim campaigns are a pure function of their flags and seed, so the file
# is byte-exact on every machine. CI regenerates it and fails on any
# diff. Run this after a change that legitimately moves Sim behaviour
# (cost model, scheduling order, fault wiring), eyeball the diff, and
# commit it together with the change that caused it.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin/chaos.exe
chaos=./_build/default/bin/chaos.exe

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out="$tmp/chaos_sim.txt"

# Keep in sync with the Sim-mode chaos steps in .github/workflows/ci.yml.
while IFS= read -r args; do
  [ -z "$args" ] && continue
  echo "### chaos $args" >>"$out"
  code=0
  # shellcheck disable=SC2086 # the flag list is split on purpose
  "$chaos" $args >>"$out" 2>/dev/null || code=$?
  echo "### exit $code" >>"$out"
done <<'EOF'
--seed 42 --campaigns 2 -d 2
--seed 7 --campaigns 1 -d 3 --sabotage 1
--seed 42 --campaigns 2 -d 2 --crash-points 6
--seed 42 --campaigns 2 -d 2 --crash-points 6 --skip-tail-check
--seed 42 --campaigns 2 -d 4 --quota 786432 --require-shed
--seed 42 --campaigns 2 -d 4 --quota 786432 --quota-sabotage
--seed 42 --campaigns 2 -d 2 --stalls --zombie-llts --require-containment
--seed 42 --campaigns 2 -d 2 --stalls --zombie-llts --no-watchdog
--seed 42 --campaigns 2 -d 1 --shards 4 --crash-points 3 --crash-steps 4
--seed 42 --campaigns 1 -d 0.5 --shards 4 --skip-coord-decision
--seed 42 --campaigns 2 -d 0.5 --shards 3 --cross-pct 40 --net-loss 0.1 --net-dup 0.05 --net-delay-us 150 --partitions 1
--seed 42 --campaigns 1 -d 0.5 --shards 3 --cross-pct 40 --net-loss 0.15 --net-delay-us 400 --partitions 2 --net-sabotage apply-on-timeout
--seed 42 --campaigns 1 -d 0.5 --shards 3 --cross-pct 40 --net-sabotage ack-forge
--seed 42 --campaigns 1 -d 1 --shards 2 --replicas 2 --kill-nodes
--seed 42 --campaigns 1 -d 1 --shards 2 --replicas 2 --kill-nodes --failover-sabotage ack-before-replicate
--seed 42 --campaigns 1 -d 1 --shards 2 --replicas 2 --kill-nodes --failover-sabotage stale-primary-writes
EOF

mkdir -p test/golden
if [ -f test/golden/chaos_sim.txt ] && diff -q test/golden/chaos_sim.txt "$out" >/dev/null; then
  echo "sim pins unchanged"
else
  cp "$out" test/golden/chaos_sim.txt
  echo "updated test/golden/chaos_sim.txt — review and commit:"
  git diff --stat -- test/golden/chaos_sim.txt || true
fi
