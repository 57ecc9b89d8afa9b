#!/usr/bin/env bash
# The full local CI gate: formatting, lints, the tier-1 build + test
# suite, and the hermetic-build guard. Run from anywhere in the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> guard: crate manifests must use only path dependencies"
# The workspace builds offline; a version/git/registry dependency in any
# crate manifest would break that. [workspace.dependencies] in the root
# manifest is the single source of truth and is checked the same way.
bad=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Inside dependency tables, every entry must be `{ path = ... }` or
    # `{ workspace = true }`; flag version/git/registry requirements.
    if awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/) }
        in_deps && /^[a-zA-Z0-9_-]+[ \t]*=/ {
            if ($0 !~ /path[ \t]*=/ && $0 !~ /workspace[ \t]*=[ \t]*true/) {
                print FILENAME ": " $0
                found = 1
            }
        }
        END { exit !found }
    ' "$manifest"; then
        bad=1
    fi
done
if [ "$bad" -ne 0 ]; then
    echo "error: non-path dependency found — the build must stay hermetic" >&2
    exit 1
fi
echo "    ok: all dependencies are path-only"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q, at SF_THREADS=1 and SF_THREADS=2"
# One thread runs every kernel's serial path; two run the pool-split
# paths (e.g. the int8 matmul's row split), so failures that depend on
# the thread count show up here whatever the host's core count.
for threads in 1 2; do
    echo "    SF_THREADS=$threads"
    SF_THREADS=$threads cargo test -q
done

echo "==> fault-matrix smoke (sensor fault injection + graceful degradation)"
cargo test -q -p sf-bench --test experiments_smoke fault_matrix_smoke

echo "==> plan check (compiled plan vs graph path, bitwise)"
# Compiles every fusion scheme's plan on the tiny network and diffs its
# outputs against the unfused graph forward; exits non-zero on any
# nonzero delta or a scratch high-water mark above the reservation.
./target/release/roadseg plan --check --smoke

echo "==> serve-bench smoke (dynamic batching server end-to-end)"
# Tiny net, 4 clients x 8 requests; --smoke exits non-zero unless every
# request was served (zero dropped, rejected, or poisoned).
./target/release/roadseg serve-bench --smoke

echo "==> chaos smoke (seeded fault schedule, conservation + reproducibility)"
# Runs the smoke schedule twice through sf-chaos; exits non-zero if any
# request is lost, the tally is not conserved, or the two runs' fault
# fingerprints differ.
./target/release/roadseg chaos --smoke

echo "==> fleet chaos smoke (replica kills, hot swap, shadow deploy)"
# Runs the fleet smoke schedule twice; exits non-zero on a conservation
# violation, a router-vs-replica reconciliation mismatch, a deploy
# casualty, a nonzero shadow diff, or same-seed fingerprint divergence.
./target/release/roadseg chaos --fleet --smoke

echo "==> soak smoke (weather fronts + multi-LiDAR rig + fault bursts, long-haul)"
# Runs the CI-sized 240-frame scenario twice against a 3-replica fleet;
# exits non-zero unless every window conserves the fleet ledger, the
# scratch-arena peak plateaus, the burst source's breaker trips and
# re-closes, and the two runs' ledger fingerprints are identical.
./target/release/roadseg soak --smoke

echo "==> fleet-bench smoke (routing + mid-run kill/revive/hot-swap)"
# 2 replicas under live load with a kill, a revival and a retrained-model
# hot swap mid-run; --smoke exits non-zero unless every request is served
# and the fleet ledger reconciles with zero failed legs.
./target/release/roadseg fleet-bench --smoke --kill --deploy --replicas 2

echo "==> int8 quantization smoke (exp_quant sweep at quick scale)"
# Runs the calibration-size x batch-size sweep end to end: weight
# compression ~4x, bounded MaxF delta, bit-stable int8 outputs.
cargo test -q -p sf-bench --test experiments_smoke quant_smoke
./target/release/exp_quant --quick > /dev/null

echo "==> int8 parity gate (quantize round trip + infer --int8 agreement)"
# Trains a tiny checkpoint, quantizes it to an SFM1 v3 file, re-evaluates
# the quantized file through the transparent f32 loader, and gates on the
# int8-vs-f32 classification agreement of a seeded generated frame.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/roadseg train --out "$tmp/model.sfm" --epochs 1 \
    --train-per-category 1 --test-per-category 1 > /dev/null
./target/release/roadseg quantize --model "$tmp/model.sfm" \
    --out "$tmp/model.int8.sfm" --calib-samples 2
./target/release/roadseg eval --model "$tmp/model.int8.sfm" \
    --test-per-category 1 > /dev/null
./target/release/roadseg generate --out "$tmp/frames" --count 1 > /dev/null
rgb="$(ls "$tmp"/frames/*.rgb.ppm | head -1)"
depth="$(ls "$tmp"/frames/*.depth.pgm | head -1)"
./target/release/roadseg infer --model "$tmp/model.sfm" \
    --rgb "$rgb" --depth "$depth" --out "$tmp/overlay.ppm" \
    --int8 --parity-min 0.9

echo "==> guard: no deprecated-API escape hatches"
# The one-shot predict and submit_with_deadline shims are gone; an
# #[allow(deprecated)] in crate code would let a resurrected shim slip
# past clippy's -D warnings.
if grep -rn "allow(deprecated)" crates/; then
    echo "error: allow(deprecated) found — migrate to the current API instead" >&2
    exit 1
fi
echo "    ok: no allow(deprecated) in crates/"

echo "==> ci.sh: all green"
