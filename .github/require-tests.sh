#!/bin/sh
# usage: require-tests.sh go test ... -run PATTERN -v
#
# Runs the command and fails when it ran no test: a -run pattern that stopped
# matching anything (a renamed or ported test) otherwise passes in silence.
# The command must carry -v, which is what prints the "=== RUN" lines.
out=$("$@" 2>&1)
status=$?
echo "$out"
[ "$status" -eq 0 ] || exit "$status"
n=$(echo "$out" | grep -c '^=== RUN')
if [ "$n" -eq 0 ]; then
  echo "require-tests: no test matched: $*" >&2
  exit 1
fi
echo "require-tests: $n tests ran"
