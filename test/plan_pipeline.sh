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
