#!/usr/bin/env python3
"""Smoke test of the repository benchmark, on tiny inputs.

Run from the repository root:

    python3 flockbench/smoke.py

Checks that every workload, traced and untraced, passes its correctness
and did-work checks and emits exactly the metrics BENCHMARK.json names,
each with its unit; and that the did-work guard rejects a run whose
catalog memo was warmed beforehand.  Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(sorted(w["name"] for w in spec["workloads"])
          == sorted(run.WORKLOADS), "BENCHMARK.json lists run.py's workloads")

    for w in run.WORKLOADS:
        for trace in (0, 1):
            p = subprocess.run(
                [sys.executable, "flockbench/run.py", "--workload", w,
                 "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
                 "--smoke"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            what = "%s trace=%d" % (w, trace)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                check(False, "%s exits 0 with a result\n%s" % (what, p.stderr))
                continue
            res = json.loads(lines[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  what + ": result keys")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1, what + ": every run correct")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            check(got == expected[trace],
                  what + ": metric names and units match BENCHMARK.json")

    # A warm memo must trip the guard: memo hits where a cold run has none
    # (basket_pairs) or more than the k-1 cascade (basket_levelwise).
    run.build()
    env = dict(os.environ, TMPDIR=os.path.abspath(".flockbench"))
    for w in ("basket_pairs", "basket_levelwise"):
        d = os.path.join(".flockbench", "smoke-prewarm-" + w)
        os.makedirs(d, exist_ok=True)
        common = ["--workload", w, "--dir", d, "--smoke"]
        run.harness(["gen", "--seed", "1"] + common, env)
        _, out = run.harness(["oracle"] + common, env)
        expect = ",".join(out.split())
        code, out = run.harness(["run", "--expect", expect] + common, env)
        check(code == 0, w + ": a cold run passes the guard")
        code, out = run.harness(
            ["run", "--expect", expect, "--prewarm"] + common, env)
        rec = json.loads(out.strip().splitlines()[-1])
        check(code != 0 and "did-work" in rec.get("error", ""),
              w + ": a prewarmed run fails the did-work guard (%s)"
              % rec.get("error"))

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
