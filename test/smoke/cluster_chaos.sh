#!/bin/sh
# Cluster chaos smoke test: a leader with a replication listener, a
# WAL-shipping read replica and a shard router, each killed with
# SIGKILL at the worst moment we can arrange:
#
#   1. the replica dies -9 mid-stream while the leader is mutating;
#      the leader must survive (no SIGPIPE death), and a replica
#      restarted over the same store must recover locally, offer its
#      epochs, stream only the delta and converge;
#   2. a router backend dies -9 mid-batch; every routed response must
#      still be a well-formed answer — correct via failover, or an
#      explicit backend_unavailable, never a hang or a torn line;
#   3. the router itself dies -9; a restarted one serves again.
#
# Along the way: replica reads match the leader byte-for-byte modulo
# the volatile "via" field, and mutations on the replica are refused
# with not_leader.  Run from the repository root (make cluster-smoke
# does).  Processes are killed by recorded PID only — never by
# pattern — so the harness cannot shoot itself.
set -eu

BIN=${CXXLOOKUP:-_build/default/bin/cxxlookup.exe}
WORK=$(mktemp -d)
cleanup() {
  for f in "$WORK"/*.pid; do
    [ -f "$f" ] && kill -9 "$(cat "$f")" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

await() {
  i=0
  until "$@"; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
      echo "cluster_chaos: timed out waiting for: $*" >&2
      exit 1
    fi
    sleep 0.05
  done
}

# One-shot request against a front end; prints the response line.
req() {
  _addr=$1
  shift
  printf '%s\n' "$@" | "$BIN" client --connect "$_addr" || true
}

epoch_of() {
  req "$1" '{"id":0,"op":"stats","session":"chaos"}' \
    | sed -n 's/.*"epoch":[[:space:]]*\([0-9]*\).*/\1/p'
}

strip_via() {
  sed 's/,"via":"[^"]*"//g'
}

port_from() {
  # port_from FILE PREFIX — parse "PREFIX 127.0.0.1:NNNN" off stderr
  sed -n "s/^$2 127\\.0\\.0\\.1:\\([0-9]*\\).*/\\1/p" "$1" | head -1
}

# --- leader: durable store + replication listener --------------------

"$BIN" serve --listen 127.0.0.1:0 --workers 1 --jobs 1 \
  --store "$WORK/leader.d" --replicate-listen 127.0.0.1:0 \
  2>"$WORK/leader.err" &
echo $! >"$WORK/leader.pid"

await grep -q 'listening on' "$WORK/leader.err"
await grep -q 'replicating on' "$WORK/leader.err"
LEAD=127.0.0.1:$(port_from "$WORK/leader.err" 'listening on')
REPL=127.0.0.1:$(port_from "$WORK/leader.err" 'replicating on')

req "$LEAD" \
  '{"id":0,"op":"open","session":"chaos","source":"struct A { int a; }; struct B : A { int b; };"}' \
  '{"id":1,"op":"mutate","session":"chaos","add_member":{"class":"A","member":{"name":"m1"}}}' \
  '{"id":2,"op":"mutate","session":"chaos","add_member":{"class":"A","member":{"name":"m2"}}}' \
  >"$WORK/seed.out"
grep -q '"ok":true' "$WORK/seed.out"

# --- replica: bootstrap, catch up, serve reads, refuse writes --------

start_replica() {
  "$BIN" replica --follow "$REPL" --store "$WORK/replica.d" \
    --listen 127.0.0.1:0 --workers 1 2>"$1" &
  echo $! >"$WORK/replica.pid"
  await grep -q 'replica listening on' "$1"
  REP=127.0.0.1:$(port_from "$1" 'replica listening on')
}
start_replica "$WORK/replica1.err"

caught_up() {
  [ "$(epoch_of "$REP")" = "$(epoch_of "$LEAD")" ] \
    && [ -n "$(epoch_of "$REP")" ]
}
await caught_up

LOOKUP='{"id":9,"op":"lookup","session":"chaos","class":"B","member":"m2"}'
req "$LEAD" "$LOOKUP" | strip_via >"$WORK/lookup.leader"
req "$REP" "$LOOKUP" | strip_via >"$WORK/lookup.replica"
grep -q '"verdict":"red"' "$WORK/lookup.leader"
diff "$WORK/lookup.leader" "$WORK/lookup.replica"

req "$REP" '{"id":3,"op":"mutate","session":"chaos","add_member":{"class":"A","member":{"name":"nope"}}}' \
  | grep -q '"code":"not_leader"'

# --- chaos 1: kill -9 the replica mid-stream -------------------------

(
  i=3
  while [ $i -le 30 ]; do
    req "$LEAD" "{\"id\":$i,\"op\":\"mutate\",\"session\":\"chaos\",\"add_member\":{\"class\":\"A\",\"member\":{\"name\":\"m$i\"}}}" \
      >>"$WORK/writer.out"
    i=$((i + 1))
  done
) &
WRITER=$!
sleep 0.3
kill -9 "$(cat "$WORK/replica.pid")"
rm -f "$WORK/replica.pid"
wait "$WRITER"
[ "$(grep -c '"ok":true' "$WORK/writer.out")" = 28 ] || {
  echo "cluster_chaos: writer lost mutations while the replica died" >&2
  exit 1
}

# The leader must have shrugged the dead follower off.
[ "$(epoch_of "$LEAD")" = "30" ] || {
  echo "cluster_chaos: leader unhealthy after follower SIGKILL" >&2
  exit 1
}

# Restart over the same store: local recovery first, then the delta.
start_replica "$WORK/replica2.err"
await grep -q 'recovered session "chaos"' "$WORK/replica2.err"
await caught_up
req "$REP" '{"id":9,"op":"lookup","session":"chaos","class":"B","member":"m30"}' \
  | grep -q '"verdict":"red"'

# --- router: a batch as one read, writes forwarded to the leader -----

start_router() {
  "$BIN" router --backend "$LEAD" --backend "$REP" --leader 0 \
    --listen 127.0.0.1:0 2>"$1" &
  echo $! >"$WORK/router.pid"
  await grep -q 'routing on' "$1"
  ROUT=127.0.0.1:$(port_from "$1" 'routing on')
}
start_router "$WORK/router1.err"

BATCH='{"id":7,"op":"batch_lookup","session":"chaos","queries":[{"class":"A","member":"a"},{"class":"B","member":"m1"},{"class":"B","member":"m30"},{"class":"B","member":"none_such"},{"class":"Missing","member":"x"}]}'
req "$LEAD" "$BATCH" | strip_via >"$WORK/batch.leader"
req "$ROUT" "$BATCH" | strip_via >"$WORK/batch.routed"
grep -q '"resolved":3' "$WORK/batch.leader"
diff "$WORK/batch.leader" "$WORK/batch.routed"

req "$ROUT" '{"id":8,"op":"mutate","session":"chaos","add_member":{"class":"A","member":{"name":"via_router"}}}' \
  | grep -q '"ok":true'
[ "$(epoch_of "$LEAD")" = "31" ] || {
  echo "cluster_chaos: routed mutation did not land on the leader" >&2
  exit 1
}
await caught_up

# --- chaos 2: kill -9 a backend mid-batch ----------------------------

(sleep 0.2; kill -9 "$(cat "$WORK/replica.pid")"; rm -f "$WORK/replica.pid") &
KILLER=$!
: >"$WORK/midbatch.out"
i=0
while [ $i -lt 30 ]; do
  req "$ROUT" "$BATCH" >>"$WORK/midbatch.out"
  i=$((i + 1))
done
wait "$KILLER"
[ "$(wc -l <"$WORK/midbatch.out")" = 30 ] || {
  echo "cluster_chaos: routed requests went unanswered during the kill" >&2
  exit 1
}
if grep -v '"ok":true' "$WORK/midbatch.out" \
  | grep -qv '"code":"backend_unavailable"'; then
  echo "cluster_chaos: a routed response was neither a result nor explicit:" >&2
  grep -v '"ok":true' "$WORK/midbatch.out" | grep -v backend_unavailable >&2
  exit 1
fi

# With the replica gone, reads must settle on pure failover to the
# leader — correct answers, not unavailability.
req "$ROUT" "$BATCH" | strip_via >"$WORK/batch.failover"
diff "$WORK/batch.leader" "$WORK/batch.failover"

# --- chaos 3: kill -9 the router itself ------------------------------

kill -9 "$(cat "$WORK/router.pid")"
rm -f "$WORK/router.pid"
start_replica "$WORK/replica3.err"
await caught_up
start_router "$WORK/router2.err"
req "$ROUT" "$BATCH" | strip_via >"$WORK/batch.rerouted"
diff "$WORK/batch.leader" "$WORK/batch.rerouted"

echo "cluster_chaos: OK"
