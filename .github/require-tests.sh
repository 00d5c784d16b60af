#!/bin/sh
# usage: require-tests.sh go test ... -run PATTERN -v
#
# Runs the command and fails when it ran no test or benchmark: a -run or
# -bench pattern that stopped matching anything (a renamed, ported or deleted
# one) otherwise passes in silence. The command must carry -v, which is what
# prints the "=== RUN" lines; benchmarks print their own "Benchmark..." lines.
out=$("$@" 2>&1)
status=$?
echo "$out"
[ "$status" -eq 0 ] || exit "$status"
n=$(echo "$out" | grep -c -e '^=== RUN' -e '^Benchmark')
if [ "$n" -eq 0 ]; then
  echo "require-tests: no test or benchmark matched: $*" >&2
  exit 1
fi
echo "require-tests: $n tests or benchmarks ran"
