#!/usr/bin/env bash
# Wire-protocol end-to-end smoke: a dolx serve --socket server driven by
# two OS-process mix clients for N seconds, plus one client that slams
# its connection mid-stream.  Asserts:
#   - both well-behaved clients finish and report DOLX-DONE with work done;
#   - connect --print-ids lists one query's answers in strictly ascending
#     document order, naming the same nodes `dolx query` prints;
#   - the server's stats report pinned_readers 0 after the abort
#     (disconnect-driven pin release observable from outside the process);
#   - SIGTERM produces a clean shutdown (exit 0 and the shutdown line,
#     which itself re-checks for leaked pins) and removes the socket.
#
# Usage: ci/wire_smoke.sh [SECONDS]   (default 15)
set -euo pipefail

SECS="${1:-15}"

if command -v opam >/dev/null 2>&1; then
  DUNE=(opam exec -- dune)
else
  DUNE=(dune)
fi

# Build once, then invoke the binary directly: concurrent `dune exec`
# calls would serialize on the build lock under a running server.
"${DUNE[@]}" build bin/dolx.exe
DOLX="$(pwd)/_build/default/bin/dolx.exe"

tmp="$(mktemp -d)"
SRV=
cleanup() {
  [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

"$DOLX" generate -n 3000 --seed 11 -o "$tmp/doc.xml"
printf 'mode read\nuser alice\nuser bob\ngrant alice read @/site\ngrant bob read @/site\n' \
  > "$tmp/policy.txt"

"$DOLX" serve -d "$tmp/doc.xml" -p "$tmp/policy.txt" --tenants 2 --jobs 2 \
  --socket "$tmp/dolx.sock" --duration 300 > "$tmp/server.log" 2>&1 &
SRV=$!

"$DOLX" connect --socket "$tmp/dolx.sock" --tenant tenant0 \
  --mix 8 --subjects 2 --seed 1 --duration "$SECS" --report > "$tmp/c1.log" &
C1=$!
"$DOLX" connect --socket "$tmp/dolx.sock" --tenant tenant1 \
  --mix 8 --subjects 2 --seed 2 --duration "$SECS" --report > "$tmp/c2.log" &
C2=$!

# mid-run: a client that vanishes mid-stream with no goodbye
sleep 1
"$DOLX" connect --socket "$tmp/dolx.sock" --tenant tenant0 '//item' --abort-after 1

# ids over the wire vs paths from the in-process CLI, as alice (bit 0)
"$DOLX" connect --socket "$tmp/dolx.sock" --tenant tenant1 --subject 0 \
  --print-ids '//item' > "$tmp/ids.txt"
"$DOLX" query -d "$tmp/doc.xml" -p "$tmp/policy.txt" -s alice '//item' \
  > "$tmp/paths.txt" 2>/dev/null
python3 - "$tmp/doc.xml" "$tmp/ids.txt" "$tmp/paths.txt" <<'PY' \
  || { echo "FAIL: connect --print-ids disagrees with dolx query" >&2; exit 1; }
import sys
import xml.etree.ElementTree as ET

doc, ids_file, paths_file = sys.argv[1:]
paths = []  # element paths in preorder = dolx node ids
def walk(e, prefix):
    p = prefix + "/" + e.tag
    paths.append(p)
    for c in e:
        walk(c, p)
walk(ET.parse(doc).getroot(), "")
query, ids = open(ids_file).read().rstrip("\n").split("\t")
ids = [int(i) for i in ids.split()]
assert ids, "no answers"
assert all(a < b for a, b in zip(ids, ids[1:])), f"ids not ascending: {ids[:8]}"
want = [l.split(": ", 1)[0] for l in open(paths_file).read().splitlines()]
got = [paths[i] for i in ids]
assert got == want, f"{len(got)} wire answers vs {len(want)} from dolx query"
print(f"print-ids: {len(ids)} answers to {query}, ascending, = dolx query")
PY

wait "$C1"
wait "$C2"
grep -q '^DOLX-DONE served=' "$tmp/c1.log"
grep -q '^DOLX-DONE served=' "$tmp/c2.log"
echo "client 1: $(grep '^DOLX-DONE' "$tmp/c1.log")"
echo "client 2: $(grep '^DOLX-DONE' "$tmp/c2.log")"

"$DOLX" connect --socket "$tmp/dolx.sock" --stats | tee "$tmp/stats.txt"
grep -q '^pinned_readers 0$' "$tmp/stats.txt" \
  || { echo "FAIL: reader pins leaked after mid-stream abort" >&2; exit 1; }
awk '$1 == "served" && $2 > 0 { ok = 1 } END { exit !ok }' "$tmp/stats.txt" \
  || { echo "FAIL: server served nothing" >&2; exit 1; }

kill -TERM "$SRV"
wait "$SRV"
SRV=
cat "$tmp/server.log"
grep -q 'clean shutdown' "$tmp/server.log" \
  || { echo "FAIL: no clean shutdown line" >&2; exit 1; }
[ ! -e "$tmp/dolx.sock" ] \
  || { echo "FAIL: socket not removed on shutdown" >&2; exit 1; }
echo "wire smoke OK"
