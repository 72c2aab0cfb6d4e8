#!/bin/sh
# Run the AVX-512 kernel differential suites — natively when the host
# has the ISA, under Intel SDE when `sde64` is on PATH, and otherwise
# exit 77 so ctest (SKIP_RETURN_CODE 77) and CI record an explicit SKIP
# instead of a vacuous pass.
#
# Usage: tools/run_avx512_tests.sh [build_dir]
#
# The filter pins the suites whose ground-truth comparison exercises
# the avx512 table when it is runnable: the per-entry kernel
# differentials (KernelDifferential.*, incl. CmpexMultistep), the
# dispatch-override tests (KernelDispatch.*), and the fused-vs-single
# network-step differentials (CompareExchange.FusedMultiStep*).  Under
# SDE the same binaries see AVX-512 CPUID bits and take the avx512
# dispatch path on any x86-64 host.
set -eu

BUILD_DIR="${1:-build}"
TESTS="$BUILD_DIR/tests/bsort_tests"
FILTER='KernelDifferential.*:KernelDispatch.*:CompareExchange.FusedMultiStep*'

if [ ! -x "$TESTS" ]; then
  echo "run_avx512_tests: $TESTS not built" >&2
  exit 1
fi

have_native_avx512() {
  # Linux: /proc/cpuinfo flags.  Other hosts fall through to SDE/skip.
  [ -r /proc/cpuinfo ] && grep -m1 -q 'avx512f' /proc/cpuinfo &&
    grep -m1 -q 'avx512bw' /proc/cpuinfo
}

if have_native_avx512; then
  echo "run_avx512_tests: native AVX-512 host"
  exec "$TESTS" --gtest_filter="$FILTER"
elif command -v sde64 >/dev/null 2>&1; then
  # -skx = Skylake-X: the avx512f/bw/cd/dq/vl feature set the kernel
  # tier targets.
  echo "run_avx512_tests: no native AVX-512, emulating under Intel SDE"
  exec sde64 -skx -- "$TESTS" --gtest_filter="$FILTER"
else
  echo "run_avx512_tests: SKIP - no AVX-512 host and no sde64 on PATH"
  exit 77
fi
