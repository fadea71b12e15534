#!/usr/bin/env bash
# Runs the crypto microbenchmarks and records machine-readable results at
# the repo root (BENCH_crypto.json) so the perf trajectory is tracked
# across PRs. Also runs the fault-tolerance cost sweep (bench_faults:
# throughput/latency vs 0-30% message loss) into BENCH_faults.json, and
# the symmetric-kernel suite (bench_parallel: AES-NI vs T-table vs
# reference, SHA-NI vs scalar) into BENCH_symmetric.json.
#
# Usage:
#   bench/run_benches.sh                  # bench_crypto + bench_faults + bench_parallel
#   BENCH_FILTER='BM_ModPow.*' bench/run_benches.sh
#   BENCH_SKIP_FAULTS=1 bench/run_benches.sh      # skip fault sweep
#   BENCH_SKIP_PARALLEL=1 bench/run_benches.sh    # skip symmetric-kernel suite
#   BENCH_SKIP_BYZANTINE=1 bench/run_benches.sh   # skip Byzantine cost study
#   BENCH_SKIP_RECOVERY=1 bench/run_benches.sh    # skip recovery/rejoin study
#   BENCH_SKIP_COMMIT=1 bench/run_benches.sh      # skip commit-path study
#   BENCH_SKIP_OVERLOAD=1 bench/run_benches.sh    # skip overload sweep
#   BENCH_SKIP_STATE=1 bench/run_benches.sh       # skip state-store study
#   BENCH_SKIP_SCALE=1 bench/run_benches.sh       # skip sharded scale study
#   BENCH_SKIP_NET=1 bench/run_benches.sh         # skip transport backend study
#   BENCH_ALLOW_DEBUG=1 bench/run_benches.sh      # permit non-Release builds
#   BUILD_DIR=out bench/run_benches.sh
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build}"
FILTER="${BENCH_FILTER:-.*}"
OUT="${BENCH_OUT:-$ROOT/BENCH_crypto.json}"

# Numbers from unoptimized builds are not comparable across PRs and have
# repeatedly confused the perf trajectory. Refuse anything but Release
# unless explicitly overridden — and then stamp the build type into every
# context block so a debug artifact can never masquerade as a datapoint.
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt" 2>/dev/null || true)"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  if [[ -z "${BENCH_ALLOW_DEBUG:-}" ]]; then
    echo "refusing to benchmark a '${BUILD_TYPE:-unknown}' build; configure with" >&2
    echo "  cmake -B \"$BUILD\" -S \"$ROOT\" -DCMAKE_BUILD_TYPE=Release" >&2
    echo "or set BENCH_ALLOW_DEBUG=1 to record (clearly stamped) debug numbers" >&2
    exit 1
  fi
  echo "WARNING: benchmarking a '${BUILD_TYPE:-unknown}' build; results will be" >&2
  echo "WARNING: stamped build_type=${BUILD_TYPE:-unknown} and are NOT comparable" >&2
fi
export VEIL_BENCH_BUILD_TYPE="${BUILD_TYPE:-unknown}"

if [[ ! -x "$BUILD/bench/bench_crypto" ]]; then
  echo "bench_crypto not built; run: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# Write to a temp file first: a filter matching nothing makes the bench
# binary emit an empty file with exit 0, which must not clobber $OUT.
TMP="$(mktemp "${OUT}.XXXXXX")"
trap 'rm -f "$TMP"' EXIT

"$BUILD/bench/bench_crypto" \
  --benchmark_filter="$FILTER" \
  --benchmark_out="$TMP" \
  --benchmark_out_format=json \
  --benchmark_repetitions="${BENCH_REPS:-1}"

if [[ ! -s "$TMP" ]]; then
  echo "no benchmarks matched filter '$FILTER'; $OUT left untouched" >&2
  exit 1
fi
mv "$TMP" "$OUT"
trap - EXIT

# Stamp the pre-optimization baselines into the context block so each
# snapshot carries its own before/after comparison (PR 1 measured the
# seed square-and-multiply at 102.8 ms for BM_ModPow_2048).
python3 - "$OUT" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["context"]["seed_baseline_ms"] = {"BM_ModPow_2048": 102.8}
data["context"]["build_type"] = os.environ.get("VEIL_BENCH_BUILD_TYPE", "unknown")
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY

echo "wrote $OUT"

# ---- Fault-tolerance sweep (reliable delivery under 0-30% loss) ------------
if [[ -z "${BENCH_SKIP_FAULTS:-}" ]]; then
  FAULTS_OUT="${BENCH_FAULTS_OUT:-$ROOT/BENCH_faults.json}"
  if [[ ! -x "$BUILD/bench/bench_faults" ]]; then
    echo "bench_faults not built; skipping fault sweep" >&2
  else
    FTMP="$(mktemp "${FAULTS_OUT}.XXXXXX")"
    trap 'rm -f "$FTMP"' EXIT
    "$BUILD/bench/bench_faults" \
      --benchmark_out="$FTMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"
    if [[ -s "$FTMP" ]]; then
      mv "$FTMP" "$FAULTS_OUT"
      echo "wrote $FAULTS_OUT"
    else
      echo "bench_faults produced no output; $FAULTS_OUT left untouched" >&2
    fi
    trap - EXIT
  fi
fi

# ---- Byzantine cost study (detection latency + cross-check overhead) -------
# Numbers quoted in the "Byzantine tier" section of docs/fault_model.md:
# validation-mode overhead on honest traffic, throughput with 0/1/2
# replaying principals, and sim-time detection latency.
if [[ -z "${BENCH_SKIP_BYZANTINE:-}" ]]; then
  BYZ_OUT="${BENCH_BYZANTINE_OUT:-$ROOT/BENCH_byzantine.json}"
  if [[ ! -x "$BUILD/bench/bench_byzantine" ]]; then
    echo "bench_byzantine not built; skipping Byzantine cost study" >&2
  else
    BTMP="$(mktemp "${BYZ_OUT}.XXXXXX")"
    trap 'rm -f "$BTMP"' EXIT
    "$BUILD/bench/bench_byzantine" \
      --benchmark_out="$BTMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"
    if [[ -s "$BTMP" ]]; then
      mv "$BTMP" "$BYZ_OUT"
      python3 - "$BYZ_OUT" <<'PY'
import json, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["context"]["validation_modes"] = {
    "0": "Trusting", "1": "Validate", "2": "Detect"}
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY
      echo "wrote $BYZ_OUT"
    else
      echo "bench_byzantine produced no output; $BYZ_OUT left untouched" >&2
    fi
    trap - EXIT
  fi
fi

# ---- Recovery tier: checkpoint/rejoin cost study ---------------------------
# Rejoin time vs lag (snapshots off/on), rejoin cost vs chain length at
# fixed lag (must stay flat), snapshot size vs state size, and transfer
# convergence under 0-30% loss, into BENCH_recovery.json.
if [[ -z "${BENCH_SKIP_RECOVERY:-}" ]]; then
  REC_OUT="${BENCH_RECOVERY_OUT:-$ROOT/BENCH_recovery.json}"
  if [[ ! -x "$BUILD/bench/bench_recovery" ]]; then
    echo "bench_recovery not built; skipping recovery cost study" >&2
  else
    RTMP="$(mktemp "${REC_OUT}.XXXXXX")"
    trap 'rm -f "$RTMP"' EXIT
    "$BUILD/bench/bench_recovery" \
      --benchmark_out="$RTMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"
    if [[ -s "$RTMP" ]]; then
      mv "$RTMP" "$REC_OUT"
      python3 - "$REC_OUT" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["context"]["checkpoints_args"] = {"0": "full replay", "1": "TrieSync checkpoint + tail replay"}
data["context"]["build_type"] = os.environ.get("VEIL_BENCH_BUILD_TYPE", "unknown")
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY
      echo "wrote $REC_OUT"
    else
      echo "bench_recovery produced no output; $REC_OUT left untouched" >&2
    fi
    trap - EXIT
  fi
fi

# ---- Symmetric kernels -----------------------------------------------------
# The CPU count is stamped into the context block alongside which
# hardware kernels were available (the aesni/sha_ni rows register
# conditionally on CPUID).
if [[ -z "${BENCH_SKIP_PARALLEL:-}" ]]; then
  SYM_OUT="${BENCH_SYMMETRIC_OUT:-$ROOT/BENCH_symmetric.json}"
  if [[ ! -x "$BUILD/bench/bench_parallel" ]]; then
    echo "bench_parallel not built; skipping symmetric-kernel suite" >&2
  else
    STMP="$(mktemp "${SYM_OUT}.XXXXXX")"
    trap 'rm -f "$STMP"' EXIT
    "$BUILD/bench/bench_parallel" \
      --benchmark_out="$STMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"
    if [[ -s "$STMP" ]]; then
      mv "$STMP" "$SYM_OUT"
      python3 - "$SYM_OUT" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
names = {b.get("name", "") for b in data.get("benchmarks", [])}
data["context"]["host_cpus"] = os.cpu_count()
data["context"]["aesni_available"] = any("aesni" in n for n in names)
data["context"]["shani_available"] = any("sha_ni" in n for n in names)
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY
      echo "wrote $SYM_OUT"
    else
      echo "bench_parallel produced no output; $SYM_OUT left untouched" >&2
    fi
    trap - EXIT
  fi
fi

# ---- Commit-path batching study --------------------------------------------
# End-to-end commit pipeline (mempool tokens + staged waves + queued
# signature checks) across wave size x validation mode, into
# BENCH_commit.json.
if [[ -z "${BENCH_SKIP_COMMIT:-}" ]]; then
  COMMIT_OUT="${BENCH_COMMIT_OUT:-$ROOT/BENCH_commit.json}"
  if [[ ! -x "$BUILD/bench/bench_commit" ]]; then
    echo "bench_commit not built; skipping commit-path study" >&2
  else
    CTMP="$(mktemp "${COMMIT_OUT}.XXXXXX")"
    trap 'rm -f "$CTMP"' EXIT
    "$BUILD/bench/bench_commit" \
      --benchmark_out="$CTMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"
    if [[ -s "$CTMP" ]]; then
      mv "$CTMP" "$COMMIT_OUT"
      python3 - "$COMMIT_OUT" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["context"]["build_type"] = os.environ.get("VEIL_BENCH_BUILD_TYPE", "unknown")
data["context"]["validation_modes"] = {
    "0": "Trusting", "1": "Validate", "2": "Detect"}
# PR 5 measured the serial Validate-mode commit path at ~9k commits/s;
# the batch>=32 Validate rows are the >=5x target against it.
data["context"]["seed_baseline_commits_per_s"] = {"fabric_validate_serial": 9000}
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY
      echo "wrote $COMMIT_OUT"
    else
      echo "bench_commit produced no output; $COMMIT_OUT left untouched" >&2
    fi
    trap - EXIT
  fi
fi

# ---- Overload robustness sweep ---------------------------------------------
# Open-loop Poisson load at 0.5x/1x/2x/4x the measured closed-loop
# saturation rate on Fabric and Quorum with the overload tier on
# (admission control, TTLs, bounded queues), into BENCH_overload.json.
# The quoted claim: past saturation, goodput plateaus near the saturation
# rate and the latency of admitted work stays bounded by the TTL.
if [[ -z "${BENCH_SKIP_OVERLOAD:-}" ]]; then
  OVERLOAD_OUT="${BENCH_OVERLOAD_OUT:-$ROOT/BENCH_overload.json}"
  if [[ ! -x "$BUILD/bench/bench_overload" ]]; then
    echo "bench_overload not built; skipping overload sweep" >&2
  else
    OTMP="$(mktemp "${OVERLOAD_OUT}.XXXXXX")"
    trap 'rm -f "$OTMP"' EXIT
    "$BUILD/bench/bench_overload" \
      --benchmark_out="$OTMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"
    if [[ -s "$OTMP" ]]; then
      mv "$OTMP" "$OVERLOAD_OUT"
      python3 - "$OVERLOAD_OUT" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["context"]["build_type"] = os.environ.get("VEIL_BENCH_BUILD_TYPE", "unknown")
data["context"]["offered_mult_encoding"] = "benchmark arg / 10 = multiple of measured saturation rate"
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY
      echo "wrote $OVERLOAD_OUT"
    else
      echo "bench_overload produced no output; $OVERLOAD_OUT left untouched" >&2
    fi
    trap - EXIT
  fi
fi

# ---- Authenticated state-store study ----------------------------------------
# Per-block root-update cost vs state size (trie incremental vs legacy
# full-rehash baseline) at 10^4/10^5/10^6 accounts, plus the delta bytes
# a 1-block-lagged rejoiner fetches vs the full image, into
# BENCH_state.json. The quoted claim: root updates stay flat (within 2x)
# from 10^4 to 10^6 accounts while the baseline grows linearly, and the
# rejoin delta tracks touched keys, not account count.
if [[ -z "${BENCH_SKIP_STATE:-}" ]]; then
  STATE_OUT="${BENCH_STATE_OUT:-$ROOT/BENCH_state.json}"
  if [[ ! -x "$BUILD/bench/bench_state" ]]; then
    echo "bench_state not built; skipping state-store study" >&2
  else
    XTMP="$(mktemp "${STATE_OUT}.XXXXXX")"
    trap 'rm -f "$XTMP"' EXIT
    "$BUILD/bench/bench_state" \
      --benchmark_out="$XTMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"
    if [[ -s "$XTMP" ]]; then
      mv "$XTMP" "$STATE_OUT"
      python3 - "$STATE_OUT" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["context"]["build_type"] = os.environ.get("VEIL_BENCH_BUILD_TYPE", "unknown")
data["context"]["writes_per_block"] = 64
data["context"]["claim"] = (
    "BM_TrieRootUpdate flat within 2x from 1e4 to 1e6 accounts; "
    "BM_LegacyFullRehash linear; BM_DeltaRejoinBytes ~O(touched keys)")
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY
      echo "wrote $STATE_OUT"
    else
      echo "bench_state produced no output; $STATE_OUT left untouched" >&2
    fi
    trap - EXIT
  fi
fi

# ---- Transport backend study -------------------------------------------------
# SimNetwork vs loopback TCP vs TCP with 10% injected socket chaos:
# batched one-way throughput across 64B/1KiB/8KiB payloads and the
# per-message quiescence-barrier round trip (p50/p99 wall micros), into
# BENCH_net.json. The quoted claim: the TCP tier costs syscalls and
# microseconds, never messages — delivered counts match the sim backend
# in every series, with or without injected faults.
if [[ -z "${BENCH_SKIP_NET:-}" ]]; then
  NET_OUT="${BENCH_NET_OUT:-$ROOT/BENCH_net.json}"
  if [[ ! -x "$BUILD/bench/bench_net" ]]; then
    echo "bench_net not built; skipping transport backend study" >&2
  else
    NTMP="$(mktemp "${NET_OUT}.XXXXXX")"
    trap 'rm -f "$NTMP"' EXIT
    "$BUILD/bench/bench_net" \
      --benchmark_out="$NTMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"
    if [[ -s "$NTMP" ]]; then
      mv "$NTMP" "$NET_OUT"
      python3 - "$NET_OUT" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["context"]["build_type"] = os.environ.get("VEIL_BENCH_BUILD_TYPE", "unknown")
data["context"]["backend_args"] = {
    "0": "sim", "1": "tcp", "2": "tcp + uniform(0.1) socket faults"}
data["context"]["throughput_args"] = "backend, payload_bytes, link_pairs"
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY
      echo "wrote $NET_OUT"
    else
      echo "bench_net produced no output; $NET_OUT left untouched" >&2
    fi
    trap - EXIT
  fi
fi

# ---- Sharded scale-out study ------------------------------------------------
# Open-loop Zipf traffic over the sharded tier: goodput vs shard count
# (1/2/4/8) and cross-shard mix (0/10/30%) at 1e5 and 1e6 users, plus
# the abort-rate/goodput sweep under 0-30% message loss, into
# BENCH_scale.json. The quoted claim: local traffic commits at the
# offered rate at any shard count; the cross-shard mix is what costs
# goodput (2PC latency + Zipf hot-key lock contention), and loss costs
# aborts and retry latency — never atomicity.
if [[ -z "${BENCH_SKIP_SCALE:-}" ]]; then
  SCALE_OUT="${BENCH_SCALE_OUT:-$ROOT/BENCH_scale.json}"
  if [[ ! -x "$BUILD/bench/bench_scale" ]]; then
    echo "bench_scale not built; skipping sharded scale study" >&2
  else
    ZTMP="$(mktemp "${SCALE_OUT}.XXXXXX")"
    trap 'rm -f "$ZTMP"' EXIT
    "$BUILD/bench/bench_scale" \
      --benchmark_out="$ZTMP" \
      --benchmark_out_format=json \
      --benchmark_repetitions="${BENCH_REPS:-1}"
    if [[ -s "$ZTMP" ]]; then
      mv "$ZTMP" "$SCALE_OUT"
      python3 - "$SCALE_OUT" <<'PY'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
data["context"]["build_type"] = os.environ.get("VEIL_BENCH_BUILD_TYPE", "unknown")
data["context"]["goodput_args"] = "users_exponent, shard_count, cross_pct"
data["context"]["loss_args"] = "loss_pct (1e5 users, 4 shards, 30% cross)"
with open(path, "w") as f:
    json.dump(data, f, indent=2)
PY
      echo "wrote $SCALE_OUT"
    else
      echo "bench_scale produced no output; $SCALE_OUT left untouched" >&2
    fi
    trap - EXIT
  fi
fi
