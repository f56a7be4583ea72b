#!/usr/bin/env bash
# Tier-1 verification for the HVAC repo.
#
#   scripts/check.sh            knob inventory (scripts/check_knobs.py),
#                               then build + ctest (the gate every
#                               change must pass)
#                               (CTEST_SHARD=K CTEST_TOTAL_SHARDS=N runs
#                               every N-th test starting at K — CI splits
#                               tier1 across shards with this)
#   scripts/check.sh asan       the same under -DHVAC_SANITIZE=address
#   scripts/check.sh tsan       the same under -DHVAC_SANITIZE=thread
#                               (concurrency suites only — full TSan runs
#                               are slow; widen TSAN_FILTER to taste)
#   scripts/check.sh bench      run bench/micro_rpc and bench/micro_core,
#                               emit BENCH_rpc.json and BENCH_core.json
#                               (BENCH_OUT / BENCH_CORE_OUT override the
#                               output paths, BENCH_REPS the repetition
#                               count)
#   scripts/check.sh chaos      the resilience suites (fault injection,
#                               circuit breaker, deadlines, backpressure,
#                               drain, daemon-kill chaos) under ASan
#   scripts/check.sh packed     packed-container smoke under ASan: gen a
#                               synthetic small-file tree, hvacctl pack,
#                               DELETE the originals, read every sample
#                               back through the LD_PRELOAD shim and
#                               byte-compare against the manifest, then
#                               assert the zero-per-file-open and
#                               one-scatter-per-small-sample invariants
#                               from server metrics (PACKED_FILES
#                               overrides the tree size, default 10000)
#   scripts/check.sh prefetch   clairvoyant-prefetch smoke: gen a tree,
#                               write the access plan (file order), read
#                               the whole stream through the shim with
#                               HVAC_PREFETCH_PLAN/DEPTH set, then
#                               assert >90% of accesses were warmed
#                               ahead of the reader from the client's
#                               HVAC_STATS_FILE dump (PREFETCH_FILES
#                               overrides the tree size, default 512)
#   scripts/check.sh trace      end-to-end tracing smoke: hvacd under
#                               HVAC_TRACE=1, traffic via hvacctl, dump
#                               with `hvacctl trace --chrome` and validate
#                               the JSON against the Chrome trace-event
#                               schema (TRACE_OUT overrides the path)
#   scripts/check.sh telemetry  telemetry-plane smoke: hvacd with the
#                               time-series collector and the OpenMetrics
#                               exporter on (HVAC_TS_INTERVAL_MS /
#                               HVAC_PROM_PORT=0), shim traffic with a
#                               client stats dump, then validate the
#                               scrape grammar + required families and
#                               cross-check the per-epoch stall buckets
#                               against the shim's wall-clock read time
#                               (TELEMETRY_FILES overrides the tree
#                               size, default 256), and smoke
#                               `hvacctl top`
#   scripts/check.sh perfbench  the live benchmark's own tests at smoke
#                               size (~40 s on 4 cores): every workload's
#                               correctness gate, traced mode including
#                               its raw-RPC pass, and the exact-count
#                               repeats (python3 perfbench/test_perfbench.py)
#   scripts/check.sh write-chaos  the checkpoint write path under ASan:
#                               journal framing + ENOSPC-shed suites,
#                               fault injection over the four write
#                               sites (journal_append, journal_fsync,
#                               store_write, pfs_write), and the
#                               kill -9 / journal-replay crash leg
#
# Sanitizer builds live in their own build dirs (build-asan/, build-tsan/)
# so they never contaminate the primary build/.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-tier1}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# The concurrency-sensitive suites worth a TSan pass: the store's
# pinned fds, the buffer pool, the RPC stack (reactor + handler pool),
# the client read path, and metrics-frame assembly racing the
# time-series collector and the OpenMetrics exporter.
TSAN_SUITES="test_storage test_common test_rpc test_async_rpc \
test_client_edge test_stress test_trace test_reactor test_write_journal \
test_prefetch test_metrics_frame test_telemetry test_passed_fd"

case "$MODE" in
  tier1)
    python3 scripts/check_knobs.py
    cmake -B build -S .
    cmake --build build -j "$JOBS"
    if [ -n "${CTEST_SHARD:-}" ]; then
      # ctest -I Start,End,Stride: shard K of N runs tests K, K+N, ...
      # Every shard still builds everything; only execution is split.
      ctest --test-dir build --output-on-failure -j "$JOBS" \
        -I "${CTEST_SHARD},,${CTEST_TOTAL_SHARDS:-2}"
    else
      ctest --test-dir build --output-on-failure -j "$JOBS"
    fi
    ;;
  asan)
    cmake -B build-asan -S . -DHVAC_SANITIZE=address
    cmake --build build-asan -j "$JOBS"
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
    ;;
  tsan)
    cmake -B build-tsan -S . -DHVAC_SANITIZE=thread
    # shellcheck disable=SC2086
    cmake --build build-tsan -j "$JOBS" --target $TSAN_SUITES
    for t in $TSAN_SUITES; do
      echo "== tsan: $t"
      "./build-tsan/tests/$t"
    done
    ;;
  chaos)
    # The resilience surface under ASan: the fault-injection harness,
    # breaker transitions, call deadlines, shedding/drain, and the
    # daemon-kill chaos scenarios, plus the channel-recovery edge
    # cases in the async-RPC and client-edge suites.
    cmake -B build-asan -S . -DHVAC_SANITIZE=address
    cmake --build build-asan -j "$JOBS" \
      --target test_chaos test_async_rpc test_client_edge test_reactor
    ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -R "Fault|Breaker|CallDeadline|Backpressure|Drain|Chaos|HostileServer|AsyncRpcFixture"
    ;;
  packed)
    # Packed-container smoke: the whole FanStore-style flow — generate,
    # pack, delete the per-file originals, then read every sample back
    # through the shim. Byte-identical output against the manifest
    # proves the data path; the metrics check proves it never fell back
    # to per-file opens. ASan build: this leg doubles as a lifetime
    # check on the scatter/sendfile container path.
    cmake -B build-asan -S . -DHVAC_SANITIZE=address
    cmake --build build-asan -j "$JOBS" \
      --target hvacd hvacctl hvac_intercept intercept_target
    NUM_FILES="${PACKED_FILES:-10000}"
    TMP="$(mktemp -d)"
    HVACD_PID=""
    cleanup() {
      if [ -n "$HVACD_PID" ]; then
        kill "$HVACD_PID" 2>/dev/null || true
        wait "$HVACD_PID" 2>/dev/null || true
      fi
      rm -rf "$TMP"
    }
    trap cleanup EXIT
    # ~16 KiB samples: more than one 8 KiB read() each, so the read-RPC
    # bound below catches a sample that costs more than one round trip.
    ./build-asan/src/client/hvacctl gentree "$TMP/pfs" "$NUM_FILES" 16384 \
      --manifest "$TMP/manifest.txt"
    ./build-asan/src/client/hvacctl pack "$TMP/pfs" \
      --container-bytes $((4 << 20))
    CONTAINERS="$(find "$TMP/pfs/.hvacpack" -name 'container_*.blob' | wc -l)"
    echo "packed $NUM_FILES files into $CONTAINERS container(s)"
    # The point of the exercise: the per-file originals are GONE. Every
    # byte the shim returns from here on came out of a container blob.
    find "$TMP/pfs" -name '*.bin' -delete
    ./build-asan/src/server/hvacd \
      --pfs-root "$TMP/pfs" --cache-dir "$TMP/cache" \
      --port-file "$TMP/ports" &
    HVACD_PID=$!
    for _ in $(seq 50); do
      [ -s "$TMP/ports" ] && break
      sleep 0.2
    done
    [ -s "$TMP/ports" ] || { echo "hvacd never published ports" >&2; exit 1; }
    EP="$(cat "$TMP/ports")"
    # Read every sample through the shim; intercept_target prints
    # "<path> <size> <fnv64>" — exactly the manifest format.
    cut -d' ' -f1 "$TMP/manifest.txt" \
      | xargs -n 256 env \
          LD_PRELOAD="$PWD/build-asan/src/intercept/libhvac_intercept.so" \
          ASAN_OPTIONS=verify_asan_link_order=0 \
          HVAC_DATASET_DIR="$TMP/pfs" \
          HVAC_SERVERS="$EP" \
          ./build-asan/tests/intercept_target > "$TMP/readback.txt"
    sort "$TMP/manifest.txt" > "$TMP/manifest.sorted"
    sort "$TMP/readback.txt" > "$TMP/readback.sorted"
    if ! diff -u "$TMP/manifest.sorted" "$TMP/readback.sorted"; then
      echo "packed readback does not match the generated tree" >&2
      exit 1
    fi
    echo "all $NUM_FILES samples read back byte-identical"
    ./build-asan/src/client/hvacctl metrics "$EP" --json \
      > "$TMP/metrics.json"
    python3 scripts/check_packed_metrics.py "$TMP/metrics.json" \
      --containers "$CONTAINERS" --manifest "$TMP/manifest.txt"
    ;;
  prefetch)
    # Clairvoyant smoke: the exact flow a training job uses — a plan
    # file naming every sample in access order, the unmodified reader
    # under the shim, and the scheduler warming the node-local cache
    # AHEAD of the stream. The stats gate proves the pipeline stayed
    # in front (>90% hit-after-prefetch); the byte-compare proves it
    # never corrupted the data path; `hvacctl prefetch` smokes the
    # operator view. Regular build: this leg gates a timing property,
    # so sanitizer slowdown would only add noise.
    cmake -B build -S .
    cmake --build build -j "$JOBS" \
      --target hvacd hvacctl hvac_intercept intercept_target
    NUM_FILES="${PREFETCH_FILES:-512}"
    TMP="$(mktemp -d)"
    HVACD_PID=""
    cleanup() {
      if [ -n "$HVACD_PID" ]; then
        kill "$HVACD_PID" 2>/dev/null || true
        wait "$HVACD_PID" 2>/dev/null || true
      fi
      rm -rf "$TMP"
    }
    trap cleanup EXIT
    ./build/src/client/hvacctl gentree "$TMP/pfs" "$NUM_FILES" 4096 \
      --manifest "$TMP/manifest.txt"
    ./build/src/server/hvacd \
      --pfs-root "$TMP/pfs" --cache-dir "$TMP/cache" \
      --port-file "$TMP/ports" &
    HVACD_PID=$!
    for _ in $(seq 50); do
      [ -s "$TMP/ports" ] && break
      sleep 0.2
    done
    [ -s "$TMP/ports" ] || { echo "hvacd never published ports" >&2; exit 1; }
    EP="$(cat "$TMP/ports")"
    # The plan IS the manifest order: one path per line, the sequence
    # the reader will open. One process reads the whole stream so a
    # single scheduler owns the plan end to end.
    cut -d' ' -f1 "$TMP/manifest.txt" > "$TMP/plan.txt"
    tr '\n' '\0' < "$TMP/plan.txt" \
      | xargs -0 env \
          LD_PRELOAD="$PWD/build/src/intercept/libhvac_intercept.so" \
          HVAC_DATASET_DIR="$TMP/pfs" \
          HVAC_SERVERS="$EP" \
          HVAC_PREFETCH_PLAN="$TMP/plan.txt" \
          HVAC_PREFETCH_DEPTH=256 \
          HVAC_STATS_FILE="$TMP/stats.json" \
          ./build/tests/intercept_target > "$TMP/readback.txt"
    if ! diff -u "$TMP/manifest.txt" "$TMP/readback.txt"; then
      echo "planned readback does not match the generated tree" >&2
      exit 1
    fi
    echo "all $NUM_FILES samples read back byte-identical"
    python3 scripts/check_prefetch_stats.py "$TMP/stats.json" \
      --min-hit-ratio 0.9
    ./build/src/client/hvacctl prefetch "$EP"
    ;;
  trace)
    cmake -B build -S .
    cmake --build build -j "$JOBS" --target hvacd hvacctl
    TRACE_OUT="${TRACE_OUT:-trace.json}"
    TMP="$(mktemp -d)"
    HVACD_PID=""
    cleanup() {
      if [ -n "$HVACD_PID" ]; then
        kill "$HVACD_PID" 2>/dev/null || true
        wait "$HVACD_PID" 2>/dev/null || true
      fi
      rm -rf "$TMP"
    }
    trap cleanup EXIT
    mkdir -p "$TMP/pfs"
    for i in 0 1 2 3; do
      head -c 65536 /dev/urandom > "$TMP/pfs/f$i.bin"
    done
    HVAC_TRACE=1 HVAC_TRACE_RING=8192 ./build/src/server/hvacd \
      --pfs-root "$TMP/pfs" --cache-dir "$TMP/cache" \
      --port-file "$TMP/ports" &
    HVACD_PID=$!
    for _ in $(seq 50); do
      [ -s "$TMP/ports" ] && break
      sleep 0.2
    done
    [ -s "$TMP/ports" ] || { echo "hvacd never published ports" >&2; exit 1; }
    EP="$(cat "$TMP/ports")"
    # Drive the miss path (warm), the metadata path (stat) and a second
    # warm (hit) so the dump carries dispatch, mover and send spans.
    for i in 0 1 2 3; do
      ./build/src/client/hvacctl warm "$EP" "f$i.bin" > /dev/null
      ./build/src/client/hvacctl stat "$EP" "f$i.bin" > /dev/null
      ./build/src/client/hvacctl warm "$EP" "f$i.bin" > /dev/null
    done
    ./build/src/client/hvacctl trace "$EP" --chrome > "$TRACE_OUT"
    python3 scripts/check_trace_schema.py "$TRACE_OUT" --min-events 8
    ;;
  telemetry)
    # Telemetry smoke: the collector ring, the exporter and the stall
    # attribution together, end to end. Regular build — the stall gate
    # compares wall clocks, so sanitizer slowdown would only add noise.
    cmake -B build -S .
    cmake --build build -j "$JOBS" \
      --target hvacd hvacctl hvac_intercept intercept_target
    NUM_FILES="${TELEMETRY_FILES:-256}"
    TMP="$(mktemp -d)"
    HVACD_PID=""
    cleanup() {
      if [ -n "$HVACD_PID" ]; then
        kill "$HVACD_PID" 2>/dev/null || true
        wait "$HVACD_PID" 2>/dev/null || true
      fi
      rm -rf "$TMP"
    }
    trap cleanup EXIT
    ./build/src/client/hvacctl gentree "$TMP/pfs" "$NUM_FILES" 4096 \
      --manifest "$TMP/manifest.txt"
    HVAC_TS_INTERVAL_MS=200 HVAC_PROM_PORT=0 \
      HVAC_PROM_PORT_FILE="$TMP/prom_port" \
      ./build/src/server/hvacd \
      --pfs-root "$TMP/pfs" --cache-dir "$TMP/cache" \
      --port-file "$TMP/ports" &
    HVACD_PID=$!
    for _ in $(seq 50); do
      [ -s "$TMP/ports" ] && [ -s "$TMP/prom_port" ] && break
      sleep 0.2
    done
    [ -s "$TMP/ports" ] || { echo "hvacd never published ports" >&2; exit 1; }
    [ -s "$TMP/prom_port" ] || {
      echo "hvacd never published the exporter port" >&2; exit 1; }
    EP="$(cat "$TMP/ports")"
    PROM="$(cat "$TMP/prom_port")"
    # Shim traffic with a stats dump: the stall cross-check needs the
    # client's per-epoch buckets next to its shim wall-clock total.
    cut -d' ' -f1 "$TMP/manifest.txt" | tr '\n' '\0' \
      | xargs -0 env \
          LD_PRELOAD="$PWD/build/src/intercept/libhvac_intercept.so" \
          HVAC_DATASET_DIR="$TMP/pfs" \
          HVAC_SERVERS="$EP" \
          HVAC_STATS_FILE="$TMP/stats.json" \
          ./build/tests/intercept_target > "$TMP/readback.txt"
    sort "$TMP/manifest.txt" > "$TMP/manifest.sorted"
    sort "$TMP/readback.txt" > "$TMP/readback.sorted"
    if ! diff -u "$TMP/manifest.sorted" "$TMP/readback.sorted"; then
      echo "telemetry readback does not match the generated tree" >&2
      exit 1
    fi
    sleep 0.5  # at least two collector ticks land in the ring
    python3 scripts/check_openmetrics.py \
      "http://127.0.0.1:$PROM/metrics" \
      --out "${SCRAPE_OUT:-$TMP/scrape.txt}" \
      --stats "$TMP/stats.json"
    # Operator views over the same ring: one top iteration must render
    # a live-rate row, and the plain-text path must not regress.
    ./build/src/client/hvacctl top "$EP" --count 1 --json \
      | tee "$TMP/top.json"
    grep -q '"rates"' "$TMP/top.json" || {
      echo "hvacctl top rendered no rates row" >&2; exit 1; }
    ./build/src/client/hvacctl top "$EP" --count 1
    ;;
  write-chaos)
    # Crash consistency under ASan: the journal framing and ENOSPC-shed
    # suites (fault injection over journal_append / journal_fsync /
    # store_write), then the kill -9 leg — test_daemon spawns hvacd
    # with HVAC_FAULT=pfs_write:error so nothing can flush before the
    # SIGKILL, restarts it, and requires every fsync-acked byte back.
    cmake -B build-asan -S . -DHVAC_SANITIZE=address
    cmake --build build-asan -j "$JOBS" \
      --target test_write_journal test_daemon hvacd hvacctl
    ./build-asan/tests/test_write_journal
    ./build-asan/tests/test_daemon --gtest_filter='WriteCrash.*'
    # Shim-level smoke on the regular build: intercept_target --copy
    # writes a checkpoint with plain POSIX calls through LD_PRELOAD
    # (open O_WRONLY|O_TRUNC -> virtual fd -> write RPCs -> journal +
    # write-back store), `hvacctl journal` reports the write-back
    # tier, and after a graceful stop the flushed PFS copy must be
    # byte-identical.
    cmake -B build -S .
    cmake --build build -j "$JOBS" \
      --target hvacd hvacctl hvac_intercept intercept_target
    TMP="$(mktemp -d)"
    HVACD_PID=""
    cleanup() {
      if [ -n "$HVACD_PID" ]; then
        kill "$HVACD_PID" 2>/dev/null || true
        wait "$HVACD_PID" 2>/dev/null || true
      fi
      rm -rf "$TMP"
    }
    trap cleanup EXIT
    mkdir -p "$TMP/pfs"
    head -c $((1 << 20)) /dev/urandom > "$TMP/src.bin"
    ./build/src/server/hvacd \
      --pfs-root "$TMP/pfs" --cache-dir "$TMP/cache" \
      --port-file "$TMP/ports" &
    HVACD_PID=$!
    for _ in $(seq 50); do
      [ -s "$TMP/ports" ] && break
      sleep 0.2
    done
    [ -s "$TMP/ports" ] || { echo "hvacd never published ports" >&2; exit 1; }
    EP="$(cat "$TMP/ports")"
    env LD_PRELOAD="$PWD/build/src/intercept/libhvac_intercept.so" \
      HVAC_DATASET_DIR="$TMP/pfs" HVAC_SERVERS="$EP" \
      ./build/tests/intercept_target --copy "$TMP/src.bin" \
      "$TMP/pfs/ckpt/model.bin"
    ./build/src/client/hvacctl journal "$EP"
    kill -TERM "$HVACD_PID"
    wait "$HVACD_PID" || true
    HVACD_PID=""
    if ! cmp "$TMP/src.bin" "$TMP/pfs/ckpt/model.bin"; then
      echo "shim-written checkpoint does not match the source" >&2
      exit 1
    fi
    echo "shim write smoke: 1 MiB checkpoint round-tripped byte-identical"
    ;;
  bench)
    cmake -B build -S .
    cmake --build build -j "$JOBS" --target micro_rpc micro_core
    # Stamp the JSON with the commit it measured so scripts/bench_compare.py
    # (and anyone reading an uploaded artifact) can tell results apart.
    GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
    GIT_DATE="$(git show -s --format=%cI HEAD 2>/dev/null || echo unknown)"
    run_bench() {
      "./build/bench/$1" \
        --benchmark_out="$2" \
        --benchmark_out_format=json \
        --benchmark_repetitions="${BENCH_REPS:-3}" \
        --benchmark_report_aggregates_only=true \
        --benchmark_context=git_sha="$GIT_SHA" \
        --benchmark_context=git_date="$GIT_DATE"
    }
    run_bench micro_rpc "${BENCH_OUT:-BENCH_rpc.json}"
    run_bench micro_core "${BENCH_CORE_OUT:-BENCH_core.json}"
    ;;
  perfbench)
    # run.py builds its own Release tree under .bench_build/.
    python3 perfbench/test_perfbench.py
    ;;
  *)
    echo "usage: $0 [tier1|asan|tsan|bench|chaos|packed|prefetch|trace|telemetry|perfbench|write-chaos]" >&2
    exit 2
    ;;
esac
