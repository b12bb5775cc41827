#!/usr/bin/env bash
# Static-analysis driver: limolint + clang-tidy + one sanitizer test pass.
#
# This is the pre-bench sanity gate (see EXPERIMENTS.md): run it before
# trusting any fleet A/B numbers. Exits non-zero if any stage finds
# anything. Stages that need a tool the host lacks (clang-tidy, clang's
# -Wthread-safety) are reported as skipped, not silently dropped.
#
# Usage:
#   tools/run_static_analysis.sh [--sanitizer=asan|ubsan|tsan|none]
#                                [--build-dir=DIR] [--jobs=N]
#                                [--json=PATH]
#
# The limolint stage checks the whole tree — per-line rules plus the
# call-graph hot-path contracts (hot-path-alloc / hot-path-blocking /
# lock-cycle) — against the committed baseline
# (tools/limolint_baseline.json). --json=PATH additionally writes the
# full pre-baseline findings as JSON (CI uploads this as an artifact;
# it is also the input for regenerating the baseline).
#
# The sanitizer stage configures a dedicated build tree
# (<build-dir>-<sanitizer>) with the matching LIMONCELLO_* option and runs
# the concurrency-focused tests (mutex, thread pool, parallel fleet) under
# it. Default sanitizer: asan. CI runs the tsan pass on every change.
set -u -o pipefail

cd "$(dirname "$0")/.."
REPO_ROOT=$(pwd)

SANITIZER=asan
BUILD_DIR=build
JOBS=$(nproc 2>/dev/null || echo 4)
JSON_OUT=
for arg in "$@"; do
  case "$arg" in
    --sanitizer=*) SANITIZER="${arg#*=}" ;;
    --build-dir=*) BUILD_DIR="${arg#*=}" ;;
    --jobs=*) JOBS="${arg#*=}" ;;
    --json=*) JSON_OUT="${arg#*=}" ;;
    *)
      echo "usage: $0 [--sanitizer=asan|ubsan|tsan|none] [--build-dir=DIR] [--jobs=N] [--json=PATH]" >&2
      exit 2
      ;;
  esac
done

FAILURES=0
declare -a SUMMARY

stage() { # name status detail
  SUMMARY+=("$(printf '%-12s %-8s %s' "$1" "$2" "$3")")
  if [ "$2" = FAIL ]; then FAILURES=$((FAILURES + 1)); fi
}

echo "=== [1/3] limolint ==="
LINT_ARGS=(--root "$REPO_ROOT" --baseline "$REPO_ROOT/tools/limolint_baseline.json")
if [ -n "$JSON_OUT" ]; then
  LINT_ARGS+=(--json "$JSON_OUT")
fi
if ! cmake -B "$BUILD_DIR" -S . >/dev/null; then
  stage limolint FAIL "cmake configure failed"
elif ! cmake --build "$BUILD_DIR" --target limolint -j "$JOBS" >/dev/null; then
  stage limolint FAIL "limolint failed to build"
elif "$BUILD_DIR/tools/limolint" "${LINT_ARGS[@]}"; then
  stage limolint OK "tree is clean vs tools/limolint_baseline.json"
else
  stage limolint FAIL "findings above (per-rule table printed by limolint)"
fi

echo
echo "=== [2/3] clang-tidy ==="
if command -v clang-tidy >/dev/null 2>&1; then
  # The configure above exported compile_commands.json
  # (CMAKE_EXPORT_COMPILE_COMMANDS is ON unconditionally).
  TIDY_SOURCES=$(git ls-files 'src/**/*.cc' 'tools/*.cc' 2>/dev/null ||
                 find src tools -name '*.cc')
  if echo "$TIDY_SOURCES" | xargs clang-tidy -p "$BUILD_DIR" --quiet; then
    stage clang-tidy OK "no diagnostics"
  else
    stage clang-tidy FAIL "diagnostics above"
  fi
else
  stage clang-tidy SKIP "clang-tidy not installed on this host"
fi

echo
echo "=== [3/3] sanitizer pass ($SANITIZER) ==="
# Matches the discovered gtest names (SuiteName.Case) plus the limolint
# tree check itself. The fault-injection suites ride along: the chaos
# paths (decorators, reboot callbacks, retry/backoff state) must be as
# data-race- and UB-clean as the happy path. So must the recovery paths:
# journal replay parses attacker-grade bytes (torn/corrupt fixtures), so
# it runs under every sanitizer too. The control plane drains shards in
# parallel through ThreadPool and calls its actuation hook concurrently,
# so its suite is here as well, with the controller core both adapters
# step (daemon and plane), the endpoint journal, and the socket transport
# that feeds the plane and carries its actuation frames.
SAN_TESTS_REGEX='^(MutexTest|CondVarTest|ThreadPoolTest|FleetParallelTest|FleetChaosTest|DaemonTest|DaemonFaultTest|FaultPlanTest|FaultInjectorTest|StateJournalTest|RecoveryManagerTest|WarmRestartTest|EndpointStateJournalTest|EndpointRecoveryTest|ControllerConfigTest|ControlPlaneTest|ControlChaosTest|ActuationFrameTest|FrameReassemblerTest|SocketTransportTest|Limolint|limolint)'
case "$SANITIZER" in
  none)
    stage sanitizer SKIP "disabled via --sanitizer=none"
    ;;
  asan | ubsan | tsan)
    SAN_OPT=$(echo "LIMONCELLO_${SANITIZER}" | tr '[:lower:]' '[:upper:]')
    SAN_DIR="${BUILD_DIR}-${SANITIZER}"
    if ! cmake -B "$SAN_DIR" -S . -D "${SAN_OPT}=ON" >/dev/null; then
      stage sanitizer FAIL "configure with ${SAN_OPT}=ON failed"
    elif ! cmake --build "$SAN_DIR" -j "$JOBS" --target \
        mutex_test thread_pool_test fleet_parallel_test \
        fleet_chaos_test daemon_test daemon_fault_test fault_plan_test \
        fault_injector_test state_journal_test recovery_manager_test \
        warm_restart_test \
        endpoint_journal_test controller_config_test control_plane_test \
        control_chaos_test actuation_frame_test frame_reassembler_test \
        socket_transport_test limolint limolint_test >/dev/null; then
      stage sanitizer FAIL "build under ${SAN_OPT} failed"
    elif (cd "$SAN_DIR" && ctest -R "$SAN_TESTS_REGEX" \
        --output-on-failure -j "$JOBS"); then
      stage sanitizer OK "concurrency tests clean under $SANITIZER"
    else
      stage sanitizer FAIL "test failures under $SANITIZER"
    fi
    ;;
  *)
    echo "unknown sanitizer: $SANITIZER" >&2
    exit 2
    ;;
esac

echo
echo "=== static analysis summary ==="
printf '%-12s %-8s %s\n' stage status detail
for line in "${SUMMARY[@]}"; do echo "$line"; done
if [ "$FAILURES" -gt 0 ]; then
  echo "FAILED: $FAILURES stage(s)"
  exit 1
fi
echo "all stages passed (skips are non-fatal)"
