#!/usr/bin/env sh
# Checks that the docs cannot drift from the tools:
#  * every name printed by `iddqsyn --list-methods` has a `## `name``
#    section in docs/methods.md, and every such section (except the
#    `portfolio:` spec family) names a registered optimizer;
#  * every flag that the generated --help of iddqsyn, iddqsyn_server or
#    iddqsyn_cluster lists appears in README.md or docs/*.md;
#  * each flag family is documented on its home page, and most also in
#    the README flag table (the `need` lines below).
#
#   $ tools/check_docs.sh path/to/iddqsyn path/to/iddqsyn_server \
#       path/to/iddqsyn_cluster
set -eu

[ $# -eq 3 ] || {
  echo "usage: check_docs.sh IDDQSYN IDDQSYN_SERVER IDDQSYN_CLUSTER"; exit 1; }
root="$(dirname "$0")/.."
status=0

# need PAGE TEXT...: every TEXT must appear in PAGE (a path under root).
need() {
  page="$1"
  shift
  for text in "$@"; do
    if ! grep -q -e "$text" "$root/$page" 2> /dev/null; then
      echo "check_docs: '$text' is missing from $page"
      status=1
    fi
  done
}

names="$("$1" --list-methods | sed -n 's/^registered optimizers: *//p')"
[ -n "$names" ] || { echo "check_docs: --list-methods printed no names"; exit 1; }
for name in $names; do
  need docs/methods.md "^## \`$name\`"
done
for doc in $(sed -n 's/^## `\([a-z:+]*\)`.*/\1/p' "$root/docs/methods.md"); do
  case "$doc" in
    portfolio:*|portfolio:) continue ;;  # spec family, not a registry name
  esac
  if ! printf '%s\n' $names | grep -qx "$doc"; then
    echo "check_docs: docs/methods.md documents '$doc', which is not registered"
    status=1
  fi
done

# Coverage grading and cache residency live in docs/coverage.md or
# docs/caching.md.
for flag in --coverage --fault-model --patterns --minimize-patterns \
    --cache-resident; do
  if ! grep -q -e "$flag" "$root/docs/coverage.md" \
      && ! grep -q -e "$flag" "$root/docs/caching.md"; then
    echo "check_docs: '$flag' is undocumented (docs/coverage.md, docs/caching.md)"
    status=1
  fi
done

# Server transport and traffic hardening, the Pareto mode, the bench
# tiers, the cluster's routing/failover knobs and the robustness surface
# (deadlines, breaker, drain), each on its home page and in the README.
server="--listen --submit --session-queue --max-jobs-per-session"
server="$server --cache-idle-evict"
cluster="--backend --replicas --retry --backoff-ms"
robustness="--job-timeout-ms --drain-timeout-ms --heartbeat-ms"
robustness="$robustness --breaker-threshold --breaker-cooldown-ms"
# (The lists are left unquoted so they split into one flag each.)
need docs/server.md $server --job-timeout-ms --drain-timeout-ms
need docs/coverage.md --pareto
need docs/architecture.md "--tier big"
need docs/cluster.md $cluster --heartbeat-ms --breaker-threshold \
  --breaker-cooldown-ms
need docs/robustness.md $robustness IDDQ_FAULT_PLAN
need README.md $server --pareto --tier --only $cluster $robustness

# Every flag a tool's --help lists (generated from its flag table) must be
# documented somewhere; a flag name only matches whole, so --patterns does
# not vouch for --patterns-x.
for tool_exe in "$@"; do
  tool="$(basename "$tool_exe")"
  flags="$("$tool_exe" --help | sed -n 's/^  \(-[-a-z0-9]*\).*/\1/p')"
  [ -n "$flags" ] || {
    echo "check_docs: $tool --help lists no flags"; status=1; }
  for flag in $flags; do
    if ! grep -Eq -e "(^|[^a-z0-9-])$flag([^a-z0-9-]|\$)" "$root/README.md" \
        "$root"/docs/*.md; then
      echo "check_docs: $tool $flag is documented in neither README.md nor docs/*.md"
      status=1
    fi
  done
done

[ "$status" -eq 0 ] && echo "check_docs: docs match the CLI surface"
exit $status
