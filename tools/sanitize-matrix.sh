#!/bin/sh
# Configure, build and run the test suite under each sanitizer in a
# sibling build tree (build-asan/, build-ubsan/, build-tsan/), then once
# more with assertions on (build-assert/: RelWithDebInfo flags without
# -DNDEBUG). Every other build defines NDEBUG, so the assert leg is where
# src/'s asserts run, the policy binding's epoch-table hit checks among
# them. Driven by `make sanitize-matrix`; also runnable directly. Pass
# ctest arguments after `--` to narrow the run, e.g.
#
#   tools/sanitize-matrix.sh -- -L chaos
#
# runs only the chaos suite in every leg.
set -eu

SRC=$(
  cd "$(dirname "$0")/.."
  pwd
)

CTEST_ARGS=""
if [ "${1:-}" = "--" ]; then
  shift
  CTEST_ARGS="$*"
fi

JOBS=$(nproc 2>/dev/null || echo 4)

for ENTRY in address:build-asan undefined:build-ubsan thread:build-tsan \
             assert:build-assert; do
  SAN=${ENTRY%%:*}
  DIR=$SRC/${ENTRY#*:}
  echo "== sanitize-matrix: $SAN ($DIR) =="
  if [ "$SAN" = assert ]; then
    cmake -S "$SRC" -B "$DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" >/dev/null
  else
    cmake -S "$SRC" -B "$DIR" -DMEDLEY_SANITIZE="$SAN" >/dev/null
  fi
  cmake --build "$DIR" -j "$JOBS"
  if [ -n "$CTEST_ARGS" ]; then
    # shellcheck disable=SC2086 # CTEST_ARGS is intentionally word-split.
    (cd "$DIR" && ctest --output-on-failure -j "$JOBS" $CTEST_ARGS)
  elif [ "$SAN" = assert ]; then
    # Unit, chaos and lifecycle suites with asserts armed; the timed
    # bench-compare gates measure release latency and are skipped here.
    (cd "$DIR" && ctest --output-on-failure -j "$JOBS" \
      -LE "bench-compare|bench-smoke")
    (cd "$DIR" && ctest --output-on-failure -R "Fleet|LatencyHistogram")
  else
    # Default run: the unit/chaos suites (which include the columnar trace
    # and arena TUs) first, then the bench-smoke figure paths as their own
    # leg so the trace writer/reader and arena hot paths see real workloads
    # under each sanitizer.
    (cd "$DIR" && ctest --output-on-failure -j "$JOBS" -LE bench-smoke)
    (cd "$DIR" && ctest --output-on-failure -L bench-smoke)
    # Fleet smoke leg: the sharded engine's phase barriers and mailbox
    # columns are exactly the protocol TSan exists to check. The fleet
    # suite already ran above under the chaos label; running it once
    # more by name means a label reshuffle can never silently drop it
    # from the matrix.
    (cd "$DIR" && ctest --output-on-failure -R "Fleet|LatencyHistogram")
  fi
done

echo "== sanitize-matrix: all sanitizers and the assert leg passed =="
