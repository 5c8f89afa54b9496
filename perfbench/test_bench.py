#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a checkout (takes about two minutes):

    python3 perfbench/test_bench.py

Checks, per workload at its smoke size: the untraced run prints exactly the
end-to-end metrics of BENCHMARK.json with their units and passes its
correctness gate; the traced run prints exactly the per-layer metrics; a
run fed one wrong answer (--corrupt) fails. At full size, for 10 s: the
traced run's layers account for its end-to-end time within
LEDGER_TOLERANCE. Across workloads: each workload's target layer has its
largest share there, and resource search is the largest self time on
join-large and not on serve-tpch.
"""

import json
import os
import subprocess
import sys

WORKLOADS = ["serve-tpch", "join-large", "alloc-wave"]
LEDGER_TOLERANCE = 0.05
SELF_LAYERS = ["protocol", "server", "sql", "rewrite", "planner", "resource", "adaptive", "alloc"]
OVERHEAD_LAYERS = ["protocol", "server", "sql", "rewrite"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(workload, trace, *extra, seconds=2):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    shares = {}
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, r = run(w, trace, "--smoke")
            check(code == 0 and r is not None and r["correct"] and r["failed"] == 0,
                  f"{w} smoke trace={trace}: exits 0 and passes its gate")
            if r is None:
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want, f"{w} smoke trace={trace}: prints every {key} metric with its unit")
        code, r = run(w, 0, "--smoke", "--corrupt")
        check(code != 0 and r is not None and not r["correct"] and r["failed"] > 0,
              f"{w}: a wrong answer fails the gate")
        # Layer shares depend on the mix, so the ledger is checked at full size.
        code, r = run(w, 1, seconds=10)
        check(code == 0 and r is not None and r["correct"], f"{w} traced: passes its gate")
        if r is None:
            continue
        mt = r["metrics"]
        un = mt["ledger.unaccounted_ratio"]["value"]
        check(abs(un) <= LEDGER_TOLERANCE,
              f"{w}: layers account for the traced time (unaccounted {un:.4f})")
        shares[w] = {l: mt[f"ledger.{l}_share"]["value"] for l in SELF_LAYERS}
        print("     shares: " + ", ".join(f"{l} {v:.3f}" for l, v in shares[w].items()))
    if len(shares) == len(WORKLOADS):
        def top(w):
            return max(SELF_LAYERS, key=lambda l: shares[w][l])
        check(top("join-large") == "resource", "resource is the largest self time on join-large")
        check(top("serve-tpch") != "resource", "resource is not the largest self time on serve-tpch")
        overhead = {w: sum(shares[w][l] for l in OVERHEAD_LAYERS) for w in WORKLOADS}
        check(max(WORKLOADS, key=lambda w: shares[w]["resource"]) == "join-large",
              "resource share is largest on join-large")
        check(max(WORKLOADS, key=lambda w: overhead[w]) == "serve-tpch",
              "protocol+server+sql+rewrite share is largest on serve-tpch")
        check(max(WORKLOADS, key=lambda w: shares[w]["alloc"]) == "alloc-wave",
              "alloc surface+search share is largest on alloc-wave")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.exit(main())
