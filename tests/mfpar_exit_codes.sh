#!/bin/sh
# Smoke-tests mfpar's exit-code taxonomy against a real binary:
#   0  success
#   2  bad flag / flag value
#   4  the program faulted at runtime (--on-fault=report/replay)
#   5  the --deadline-ms wall-clock deadline fired mid-run
#   6  the --mem-limit-mb array-memory budget was exceeded
#   SIGABRT under --on-fault=abort (the driver aborts; the interpreter
#   itself always unwinds cleanly)
#
# Usage: mfpar_exit_codes.sh path/to/mfpar
set -u

MFPAR=${1:?usage: mfpar_exit_codes.sh path/to/mfpar}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
ulimit -c 0 2>/dev/null || true

FAILURES=0
check() {
  WANT=$1
  DESC=$2
  shift 2
  "$@" >"$TMP/out" 2>"$TMP/err"
  GOT=$?
  if [ "$GOT" -ne "$WANT" ]; then
    echo "FAIL: $DESC: expected exit $WANT, got $GOT" >&2
    sed 's/^/  stderr: /' "$TMP/err" >&2
    FAILURES=$((FAILURES + 1))
  else
    echo "ok: $DESC (exit $GOT)"
  fi
}

# A program whose scatter subscripts x out of bounds at iteration 500.
cat >"$TMP/oob.mf" <<'EOF'
program t
  integer i, n
  integer ind(1000)
  real x(1000)
  n = 1000
  fill: do i = 1, n
    ind(i) = i
    x(i) = 0.0
  end do
  ind(500) = 2000
  oob: do i = 1, n
    x(ind(i)) = x(ind(i)) + 1.0
  end do
end
EOF

cat >"$TMP/good.mf" <<'EOF'
program t
  integer i, n
  real x(100)
  n = 100
  lp: do i = 1, n
    x(i) = i * 2.0
  end do
end
EOF

check 0 "clean analyze+run" "$MFPAR" "$TMP/good.mf" --run=2
check 1 "missing input file" "$MFPAR" "$TMP/does-not-exist.mf"
check 2 "unknown flag" "$MFPAR" --no-such-flag
check 2 "bad --on-fault value" "$MFPAR" --on-fault=bogus
check 2 "bad --schedule value" "$MFPAR" "$TMP/good.mf" --schedule=gided
check 2 "removed --locality flag" "$MFPAR" "$TMP/good.mf" --locality=off
check 2 "removed --schedule flag" "$MFPAR" "$TMP/good.mf" --schedule=guided
check 2 "removed --chunk flag" "$MFPAR" "$TMP/good.mf" --chunk=4
check 2 "removed --engine=interp" "$MFPAR" "$TMP/good.mf" --engine=interp
check 2 "empty --profile= value" "$MFPAR" "$TMP/good.mf" --profile=
check 2 "--run above 256" "$MFPAR" "$TMP/good.mf" --run=257
check 0 "profiled run writes JSONL" \
  "$MFPAR" "$TMP/good.mf" --profile="$TMP/profile.jsonl" --run=2
[ -s "$TMP/profile.jsonl" ] ||
  { echo "FAIL: --profile wrote no JSONL" >&2; FAILURES=$((FAILURES + 1)); }
check 4 "runtime fault, replay policy" \
  "$MFPAR" "$TMP/oob.mf" --run=2 --on-fault=replay
check 4 "runtime fault, report policy" \
  "$MFPAR" "$TMP/oob.mf" --run=2 --on-fault=report

# A loop big enough (8M iterations) that a 1 ms deadline always fires
# mid-run, while 60 s never does; its array (64 MB) also overflows a 1 MB
# budget at allocation time, before a single iteration runs.
cat >"$TMP/big.mf" <<'EOF'
program t
  integer i
  real x(8000000)
  lp: do i = 1, 8000000
    x(i) = i * 1.0
  end do
end
EOF

check 2 "bad --deadline-ms value" "$MFPAR" "$TMP/big.mf" --deadline-ms=soon
check 2 "negative --deadline-ms" "$MFPAR" "$TMP/big.mf" --deadline-ms=-5
check 2 "bad --mem-limit-mb value" "$MFPAR" "$TMP/big.mf" --mem-limit-mb=big
check 2 "zero --mem-limit-mb" "$MFPAR" "$TMP/big.mf" --mem-limit-mb=0
check 0 "generous deadline" "$MFPAR" "$TMP/big.mf" --run=2 --deadline-ms=60000
check 5 "blown deadline" "$MFPAR" "$TMP/big.mf" --run=2 --deadline-ms=1
grep -q "deadline-exceeded" "$TMP/err" ||
  { echo "FAIL: deadline fault missing from stderr" >&2; FAILURES=$((FAILURES + 1)); }
check 0 "generous memory budget" \
  "$MFPAR" "$TMP/big.mf" --run=2 --mem-limit-mb=256
check 6 "blown memory budget" "$MFPAR" "$TMP/big.mf" --run=2 --mem-limit-mb=1
grep -q "resource-exhausted" "$TMP/err" ||
  { echo "FAIL: budget fault missing from stderr" >&2; FAILURES=$((FAILURES + 1)); }

# The race checker runs under the same limits. Its shadow tags make each
# iteration slow, so 1M iterations outlast a 1 ms deadline; the 8 MB array
# overflows a 1 MB budget before the first one.
cat >"$TMP/mid.mf" <<'EOF'
program t
  integer i
  real x(1000000)
  lp: do i = 1, 1000000
    x(i) = i * 1.0
  end do
end
EOF
check 5 "blown deadline under --race-check" \
  "$MFPAR" "$TMP/mid.mf" --race-check --deadline-ms=1
check 6 "blown memory budget under --race-check" \
  "$MFPAR" "$TMP/mid.mf" --race-check --mem-limit-mb=1

# --on-fault=abort keeps the legacy behavior: the driver aborts the
# process (SIGABRT = 134 from sh) after printing the fault.
"$MFPAR" "$TMP/oob.mf" --run=2 --on-fault=abort >"$TMP/out" 2>"$TMP/err"
GOT=$?
if [ "$GOT" -lt 128 ]; then
  echo "FAIL: abort policy: expected a signal death, got exit $GOT" >&2
  FAILURES=$((FAILURES + 1))
else
  echo "ok: abort policy dies by signal (exit $GOT)"
fi

grep -q "runtime fault" "$TMP/err" ||
  { echo "FAIL: fault report missing from stderr" >&2; FAILURES=$((FAILURES + 1)); }

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES exit-code check(s) failed" >&2
  exit 1
fi
echo "all exit-code checks passed"
