#!/bin/sh
# Zero-copy crash-recovery smoke test: serve with a durable store and a
# tiny compaction threshold (so mutations leave real snapshots on
# disk), SIGKILL the server, then restart it three ways — mmap-verify
# (the default), mmap-fast, and decode — and require byte-identical
# recovered transcripts from all three, with the store's own counter
# proving the zero-copy path actually engaged.  Finally truncate the
# newest snapshot: recovery must fall back to the previous one and
# answer that epoch's verdicts, never crash.  Run from the repository
# root (make verify does).
set -eu

BIN=${CXXLOOKUP:-_build/default/bin/cxxlookup.exe}
SMOKE_DIR=$(dirname "$0")
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

STORE="$WORK/store.d"
FIFO="$WORK/in.fifo"
mkfifo "$FIFO"

# Phase 1: open and mutate twice with --compact-bytes 1, so every
# mutation compacts the WAL into a fresh snapshot — the store ends up
# holding snapshots for epochs 1 and 2 and an empty WAL, which is
# exactly the shape the mmap restore path serves.  Then SIGKILL.
"$BIN" serve --jobs 1 --store "$STORE" --fsync always --compact-bytes 1 \
  <"$FIFO" >"$WORK/phase1.out" 2>/dev/null &
SERVER=$!
exec 3>"$FIFO"
cat "$SMOKE_DIR/crash_phase1.jsonl" >&3

EXPECT=$(wc -l <"$SMOKE_DIR/crash_phase1.jsonl")
i=0
while [ "$(wc -l <"$WORK/phase1.out")" -lt "$EXPECT" ]; do
  i=$((i + 1))
  if [ "$i" -gt 200 ]; then
    echo "mmap_crash: phase 1 timed out waiting for responses" >&2
    kill -9 "$SERVER" 2>/dev/null || true
    exit 1
  fi
  sleep 0.05
done
kill -9 "$SERVER"
exec 3>&-
wait "$SERVER" 2>/dev/null || true

# Phase 2, three restore modes over the same store.  Each fresh server
# must recover epoch 2 with nothing to replay (the WAL was compacted
# away) and answer the canned transcript identically.
recover_with() {
  mode=$1
  "$BIN" serve --jobs 1 --store "$STORE" --mmap-restore "$mode" \
    --metrics-file "$WORK/$mode.prom" \
    <"$SMOKE_DIR/crash_phase2.jsonl" \
    >"$WORK/$mode.out" 2>"$WORK/$mode.log"
  grep -q 'recovered session "crash": epoch 2, 0 replayed' "$WORK/$mode.log" || {
    echo "mmap_crash: $mode recovery line missing or wrong:" >&2
    cat "$WORK/$mode.log" >&2
    exit 1
  }
}

recover_with verify
recover_with fast
recover_with off
# The recovered transcript has its own golden.  Its verdicts must also
# match the WAL-replay recovery's golden (2 mutations replayed).  Only
# "via" and the stats line differ from that one, by design: here
# compaction consumed the WAL, so nothing was replayed, the incremental
# engine is still lazy, and the session compiles each queried column
# ("via":"table") where the replayed session answers from the engine's
# rows ("via":"memo").
diff "$WORK/verify.out" "$SMOKE_DIR/mmap_golden.jsonl"
verdicts() { grep -v '"stats"' "$1" | sed 's/,"via":"[^"]*"//'; }
verdicts "$WORK/verify.out" >"$WORK/verify.verdicts"
verdicts "$SMOKE_DIR/crash_golden.jsonl" | diff "$WORK/verify.verdicts" -
diff "$WORK/fast.out" "$WORK/verify.out"
diff "$WORK/off.out" "$WORK/verify.out"

# The counter is the proof the modes differ under the identical
# output: both mmap modes restored zero-copy, decode mode never did.
grep -q 'cxxlookup_store_mmap_restores_total 1' "$WORK/verify.prom"
grep -q 'cxxlookup_store_mmap_restores_total 1' "$WORK/fast.prom"
grep -q 'cxxlookup_store_mmap_restores_total 0' "$WORK/off.prom"

# Damage: truncate the newest snapshot to half its size.  Neither the
# mapping path nor the decode path can accept it, so recovery must
# fall back to the epoch-1 snapshot — the session loses the epoch-2
# mutation (D::m), and E::m resolves to C again, as it did at epoch 1.
NEWEST="$STORE/crash/$(ls "$STORE/crash" | grep '^snap-' | sort | tail -1)"
SIZE=$(wc -c <"$NEWEST")
head -c $((SIZE / 2)) "$NEWEST" >"$WORK/half" && mv "$WORK/half" "$NEWEST"

"$BIN" serve --jobs 1 --store "$STORE" <<'EOF' >"$WORK/fallback.out" 2>"$WORK/fallback.log"
{"id":1,"op":"lookup","session":"crash","class":"E","member":"m"}
{"id":2,"op":"lookup","session":"crash","class":"F","member":"n"}
EOF

grep -q 'recovered session "crash": epoch 1, 0 replayed' "$WORK/fallback.log" || {
  echo "mmap_crash: fallback recovery line missing or wrong:" >&2
  cat "$WORK/fallback.log" >&2
  exit 1
}
grep -q '"id":1,"ok":true.*"resolves_to":"C"' "$WORK/fallback.out"
grep -q '"id":2,"ok":true.*"resolves_to":"F"' "$WORK/fallback.out"

echo "mmap_crash: OK"
