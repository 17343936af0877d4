#!/bin/sh
# Usage errors of iddqsyn_server and iddqsyn_cluster: every bad command
# line exits 1, prints "<tool>: <error>" and the usage text on stderr, and
# nothing on stdout.
#
#   $ tests/scripts/usage_errors.sh path/to/iddqsyn_server
#   $ tests/scripts/usage_errors.sh path/to/iddqsyn_cluster
set -u

exe="$1"
tool="$(basename "$exe")"
# The cluster needs a backend before any other flag can be the error;
# $base is left unquoted below so it splits into its two words.
base=""
[ "$tool" = iddqsyn_cluster ] && base="--backend 127.0.0.1:1"
err="usage_errors_$tool.txt"
status=0

expect_usage_error() {
  want="$1"
  shift
  out="$("$exe" "$@" < /dev/null 2> "$err")"
  code=$?
  if [ "$code" -ne 1 ] || [ -n "$out" ] \
      || [ "$(head -n 1 "$err")" != "$tool: $want" ] \
      || ! grep -q "^usage: $tool " "$err"; then
    echo "FAIL: $tool $* (exit $code): expected '$tool: $want' and usage"
    cat "$err"
    status=1
  fi
}

expect_usage_error "unknown option '--bogus'" $base --bogus
expect_usage_error "--session-queue needs a value" $base --session-queue
expect_usage_error "--listen needs host:port (got :80)" $base --listen :80
expect_usage_error "--listen needs host:port (got h:70000)" \
  $base --listen h:70000
if [ "$tool" = iddqsyn_cluster ]; then
  expect_usage_error "at least one --backend is required" --listen h:0
fi

[ "$status" -eq 0 ] && echo "usage_errors: $tool rejects every bad command line"
exit $status
