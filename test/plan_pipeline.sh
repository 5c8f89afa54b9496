#!/usr/bin/env bash
# `raqo plan` and `raqo serve` plan through one request pipeline, so the same
# request gets the same answer, or the same refusal, on both surfaces.
# Usage: plan_pipeline.sh PATH_TO_RAQO_BINARY
set -euo pipefail
raqo=$1
fail() { echo "plan_pipeline: $*" >&2; exit 1; }

# The served answer's "message" field, JSON escapes undone.
served_message() {
  "$raqo" serve --oneshot | sed -n 's/.*"message":"\(.*\)"}$/\1/p' | sed 's/\\"/"/g'
}

q="select * from orders, lineitem where o_orderkey = l_orderkey and o_totalprice < 172000"

# --sql honours --mode qo: the fixed resources, at the served qo answer's cost.
out=$("$raqo" plan --sql "$q" --mode qo --containers 10 --gb 5)
grep -qF "(lineitem SMJ<10 x 5.0GB> orders)" <<<"$out" \
  || fail "plan --sql --mode qo ignored the fixed resources: $out"
served=$(printf '{"id":"q","sql":"%s","mode":"qo","containers":10,"gb":5}\n' "$q" \
  | "$raqo" serve --oneshot)
grep -qF '"plan":"(lineitem SMJ<10 x 5.0GB> orders)"' <<<"$served" \
  || fail "served qo plan differs: $served"
cost=$(sed -n 's/.*"cost":\([-0-9.e+]*\).*/\1/p' <<<"$served")
[ -n "$cost" ] || fail "served qo answer carries no cost: $served"
total=$(printf 'total: est cost %.1f,' "$cost")
grep -qF "$total" <<<"$out" || fail "plan total is not the served cost $cost: $out"

# --sql --adaptive explains the static plan against the estimates it was
# planned on: the printed total is the served adaptive answer's cost.
out=$("$raqo" plan --sql "$q" --adaptive --est-error lognormal:42)
served=$(printf '{"id":"q","sql":"%s","adaptive":true,"est_error":"lognormal:42"}\n' "$q" \
  | "$raqo" serve --oneshot)
cost=$(sed -n 's/.*"cost":\([-0-9.e+]*\).*/\1/p' <<<"$served")
[ -n "$cost" ] || fail "served adaptive answer carries no cost: $served"
total=$(printf 'total: est cost %.1f,' "$cost")
grep -qF "$total" <<<"$out" || fail "adaptive plan total is not the served cost $cost: $out"

# A rewritten query is explained against the schema the rewrite handed the
# planner: here customer's filter is folded into orders, which absorbs it,
# and the printed total is the served cost, with and without --adaptive.
q="select o_orderkey from customer, orders, lineitem where c_custkey = o_custkey and l_orderkey = o_orderkey and c_acctbal < 0"
for adaptive in "" "--adaptive"; do
  out=$("$raqo" plan --sql "$q" ${adaptive:+$adaptive --est-error lognormal:42})
  grep -qF "absorbed customer into orders" <<<"$out" || fail "no absorption: $out"
  fields=${adaptive:+,\"adaptive\":true,\"est_error\":\"lognormal:42\"}
  served=$(printf '{"id":"q","sql":"%s"%s}\n' "$q" "$fields" | "$raqo" serve --oneshot)
  cost=$(sed -n 's/.*"cost":\([-0-9.e+]*\).*/\1/p' <<<"$served")
  [ -n "$cost" ] || fail "served rewritten answer carries no cost: $served"
  total=$(printf 'total: est cost %.1f,' "$cost")
  grep -qF "$total" <<<"$out" || fail "rewritten plan total is not the served cost $cost: $out"
done

# --engine spark prices with the Spark model, as a served "engine":"spark"
# request does: the same plan, at the served cost.
out=$("$raqo" plan customer orders lineitem nation --engine spark)
served=$(printf '{"id":"s","relations":["customer","orders","lineitem","nation"],"engine":"spark"}\n' \
  | "$raqo" serve --oneshot)
plan=$(sed -n 's/.*"plan":"\([^"]*\)".*/\1/p' <<<"$served")
[ -n "$plan" ] || fail "served spark answer carries no plan: $served"
grep -qxF "Joint query/resource plan: $plan" <<<"$out" \
  || fail "plan --engine spark is not the served plan $plan: $out"
cost=$(sed -n 's/.*"cost":\([-0-9.e+]*\).*/\1/p' <<<"$served")
total=$(printf 'total: est cost %.1f,' "$cost")
grep -qF "$total" <<<"$out" || fail "plan --engine spark total is not the served cost $cost: $out"

# Adaptive execution does not apply to qo: exit 2 with the server's message.
want=$(printf '{"id":"a","relations":["orders","lineitem"],"mode":"qo","containers":10,"gb":5,"adaptive":true}\n' \
  | served_message)
[ -n "$want" ] || fail "the server accepted adaptive qo"
rc=0
err=$("$raqo" plan orders lineitem --mode qo --adaptive 2>&1 >/dev/null) || rc=$?
[ "$rc" = 2 ] || fail "plan --mode qo --adaptive exited $rc, want 2"
grep -qF "$want" <<<"$err" || fail "plan --mode qo --adaptive said: $err (server: $want)"

# Relation lists the server refuses are refused with the same message.
for rels in '"orders"' '"orders","orders"' '"orders","bogus"' '"orders","region"'; do
  want=$(printf '{"id":"r","relations":[%s]}\n' "$rels" | served_message)
  [ -n "$want" ] || fail "the server planned relations [$rels]"
  rc=0
  err=$("$raqo" plan $(tr ',"' '  ' <<<"$rels") 2>&1 >/dev/null) || rc=$?
  [ "$rc" != 0 ] || fail "plan accepted relations [$rels]"
  grep -qF "$want" <<<"$err" || fail "plan [$rels] said: $err (server: $want)"
done

# A single-relation SQL query is refused on both surfaces, with the
# relation-list form's message.
want=$(printf '{"id":"r","relations":["orders"]}\n' | served_message)
[ -n "$want" ] || fail "the server planned relations [orders]"
got=$(printf '{"id":"s","sql":"select * from orders"}\n' | served_message)
[ "$got" = "$want" ] || fail "served single-relation SQL said: ${got:-a plan} (relations: $want)"
rc=0
err=$("$raqo" plan --sql "select * from orders" 2>&1 >/dev/null) || rc=$?
[ "$rc" != 0 ] || fail "plan accepted single-relation SQL"
grep -qF "$want" <<<"$err" || fail "plan --sql single relation said: $err (server: $want)"

# `raqo trace` refuses the same relation lists with the same message and
# exit 1, as `raqo plan` does.
for rels in '"orders","foo"' '"orders"' '"orders","orders"' '"nation","orders"'; do
  want=$(printf '{"id":"r","relations":[%s]}\n' "$rels" | served_message)
  [ -n "$want" ] || fail "the server planned relations [$rels]"
  rc=0
  err=$("$raqo" trace $(tr ',"' '  ' <<<"$rels") 2>&1 >/dev/null) || rc=$?
  [ "$rc" = 1 ] || fail "trace [$rels] exited $rc, want 1"
  grep -qF "$want" <<<"$err" || fail "trace [$rels] said: $err (server: $want)"
done

# `raqo trace --random N` needs N >= 2, and Selinger and DPsub refuse a
# query over their 20-relation cap after the rewrite: exit 2 with a message.
for args in "--random 0" "--random 1" "--random 40 --planner dpsub" \
  "--random 40 --planner selinger" "--random 21 --no-rewrite --planner dpsub" \
  "--random 21 --no-rewrite --planner selinger"; do
  rc=0
  err=$("$raqo" trace $args 2>&1 >/dev/null) || rc=$?
  [ "$rc" = 2 ] || fail "trace $args exited $rc, want 2"
  grep -q "^raqo: " <<<"$err" || fail "trace $args said: $err"
done
# The rewrite absorbs 21 random relations down to 13, which DPsub plans.
out=$("$raqo" trace --random 21 --planner dpsub) || fail "trace --random 21 --planner dpsub failed"
grep -q "^joint plan for" <<<"$out" || fail "trace --random 21 --planner dpsub printed: $out"

# Option values are checked by the subcommand that takes the flag: a flag
# the subcommand does not take is an unknown option, whatever its value, and
# a bad value names the valid choices. Both exit 2.
for args in "serve --jobs 0" "serve --jobs 2" "serve --planner bogus"; do
  rc=0
  err=$("$raqo" $args 2>&1 </dev/null >/dev/null) || rc=$?
  [ "$rc" = 2 ] || fail "$args exited $rc, want 2"
  grep -qF "unknown option" <<<"$err" || fail "$args said: $err"
  if grep -qF selinger <<<"$err"; then fail "$args listed the planners: $err"; fi
done
rc=0
err=$("$raqo" plan --planner bogus 2>&1 >/dev/null) || rc=$?
[ "$rc" = 2 ] || fail "plan --planner bogus exited $rc, want 2"
grep -qF selinger <<<"$err" || fail "plan --planner bogus said: $err"
rc=0
err=$("$raqo" trace --jobs 0 2>&1 >/dev/null) || rc=$?
[ "$rc" = 2 ] || fail "trace --jobs 0 exited $rc, want 2"
grep -qF "integer >= 1" <<<"$err" || fail "trace --jobs 0 said: $err"
