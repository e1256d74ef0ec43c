#!/usr/bin/env bash
# Kill-9 crash-recovery drill: the executable form of the
# checkpoint/restore contract (docs/checkpoint-format.md).
#
#  1. Reference leg: run a fault-drill scenario straight through and
#     capture its key=value report.
#  2. Crash leg: run the same scenario with periodic checkpoints and
#     let the driver SIGKILL itself mid-run — no cleanup, exactly
#     what a power loss leaves behind.
#  3. Resume leg: rerun pointing at the surviving snapshot; the
#     resumed report must be BYTE-IDENTICAL to the reference
#     (stateDigest and every metric, %.17g doubles included).
#  4. Corruption legs: flip one byte in the middle of the snapshot,
#     truncate it at byte 100 and halfway through the telemetry
#     section's payload, and assert each restore fails with a
#     structured error — a damaged file must never silently resume
#     wrong.
#
# Usage: scripts/crash_drill.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
drill="$build_dir/example_checkpoint_drill"

if [ ! -x "$drill" ]; then
    echo "FAIL: $drill not built (cmake --build $build_dir -j)" >&2
    exit 1
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The scenario rides in through the structured-error spec loader so
# the drill also exercises loadScenarioSpec end to end.
spec="$work/drill.conf"
cat > "$spec" <<'EOF'
# crash-drill scenario: compound emergency, deterministic seed
scenario = fault-drill
seed = 1301
policy = tapas
sensor_quarantine = true
faults.sensor.mtbf_s = 21600
faults.sensor.mttr_s = 3600
EOF

echo "== crash drill: reference run =="
"$drill" --scenario "$spec" --out "$work/reference.out"

echo "== crash drill: run with checkpoints, SIGKILL mid-run =="
# 137 = 128 + SIGKILL: anything else means the driver exited on its
# own instead of dying mid-run.
rc=0
"$drill" --scenario "$spec" --ckpt "$work/drill.tapasckp" \
    --period-steps 12 --kill-after 5 || rc=$?
if [ "$rc" -ne 137 ]; then
    echo "FAIL: expected the crash leg to die with SIGKILL" \
         "(exit 137), got $rc" >&2
    exit 1
fi
if [ ! -f "$work/drill.tapasckp" ]; then
    echo "FAIL: no snapshot survived the crash" >&2
    exit 1
fi

echo "== crash drill: resume from the surviving snapshot =="
"$drill" --scenario "$spec" --ckpt "$work/drill.tapasckp" \
    --period-steps 12 --out "$work/resumed.out"

echo "== crash drill: compare resumed vs straight-through =="
if ! cmp "$work/reference.out" "$work/resumed.out"; then
    echo "FAIL: resumed run diverged from the reference" >&2
    diff "$work/reference.out" "$work/resumed.out" >&2 || true
    exit 1
fi
echo "OK: resumed report is byte-identical to the reference"

echo "== crash drill: corrupted snapshot must be rejected =="
# Rebuild a snapshot (the resume leg deletes nothing, but make the
# corruption target explicit), then flip one payload byte.
"$drill" --scenario "$spec" --ckpt "$work/corrupt.tapasckp" \
    --period-steps 12 --kill-after 3 || true
python3 - "$work/corrupt.tapasckp" <<'EOF'
import sys
path = sys.argv[1]
with open(path, "rb") as f:
    blob = bytearray(f.read())
blob[len(blob) // 2] ^= 0x10
with open(path, "wb") as f:
    f.write(blob)
EOF
"$drill" --scenario "$spec" --expect-corrupt "$work/corrupt.tapasckp"

# Truncation is the other realistic crash artifact (torn copy, full
# disk): a half file must be rejected the same way.
head -c 100 "$work/corrupt.tapasckp" > "$work/truncated.tapasckp"
"$drill" --scenario "$spec" \
    --expect-corrupt "$work/truncated.tapasckp"

# The same halfway through section 3's (telemetry) payload, found by
# walking the frame table (28-byte header, then per frame a u32 id, a
# u64 payload length, the payload and a u32 CRC). The frames of ids 1
# and 2 stream and pass their CRCs first; section 3's length then exceeds
# what is left of the file, so this leg checks the frame-length bound
# after two streamed frames.
cut=$(python3 - "$work/drill.tapasckp" <<'PY'
import struct, sys
with open(sys.argv[1], "rb") as f:
    blob = f.read()
(count,) = struct.unpack_from("<I", blob, 12)
pos = 28
for _ in range(count):
    sid, length = struct.unpack_from("<IQ", blob, pos)
    if sid == 3:
        print(pos + 12 + length // 2)
        sys.exit(0)
    pos += 12 + length + 4
sys.exit("no telemetry section (id 3) in " + sys.argv[1])
PY
)
head -c "$cut" "$work/drill.tapasckp" > "$work/truncated_rings.tapasckp"
"$drill" --scenario "$spec" \
    --expect-corrupt "$work/truncated_rings.tapasckp"

echo "OK: crash drill passed"
