#!/usr/bin/env python3
"""The repository benchmark: query-flock mining, end to end and per layer.

Run from the repository root:

    python3 flockbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 flockbench/run.py --workload all --seed N --seconds S

Builds the harness (flockbench.exe, beside this file) with dune, generates
the workload's inputs from the seed, computes the oracle answer digests
with Direct.run, then runs a closed loop for S seconds: one client, one
mining run at a time, each run in a fresh process.  Every run is checked
against the oracle and the did-work assertions; a run that fails any check
counts in `failed`.

With --trace 0 the result carries the end-to-end metrics (medians over the
untraced runs).  With --trace 1 runs alternate traced (Obs spans on) and
untraced; the result carries the per-layer metrics (medians over the
traced runs) and trace.overhead_s, the difference of the two wall medians.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A human-readable report (stamp, metrics, phase table) goes to standard
error, and the full record to .flockbench/results/.  With --workload all,
every workload runs untraced and then traced, each for S seconds, and
each prints its result line with its workload and trace added.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("basket_pairs", "basket_levelwise", "medical_views",
             "basket_pairs_spill")

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("query_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
]

# The layer timers, consecutive within a run: they and unattributed_s sum
# to wall_s.  The trace rows below plan_exec are the self times of the
# spans nested under it.
PHASES = ["csv.load_s", "catalog.add_s", "parse.time_s", "views.time_s",
          "statistics.time_s", "optimizer.time_s", "plan_exec.time_s",
          "output.time_s", "unattributed_s"]
NESTED = ["trace.plan.run.self_s", "trace.filter.step.self_s",
          "trace.join.equi.self_s", "trace.join.semi.self_s",
          "trace.join.anti.self_s", "trace.aggregate.group_by.self_s",
          "trace.aggregate.group_filter.self_s", "trace.other.self_s"]

PER_LAYER = [
    ("csv.load_s", "s"), ("catalog.add_s", "s"), ("csv.rows", "rows"),
    ("csv.bytes", "bytes"), ("csv.minor_mw", "Mwords"),
    ("parse.time_s", "s"), ("views.time_s", "s"), ("views.rows", "rows"),
    ("statistics.time_s", "s"),
    ("optimizer.time_s", "s"), ("optimizer.plans", "count"),
    ("optimizer.filter_steps", "count"), ("optimizer.est_work", "tuples"),
    ("plan_exec.time_s", "s"), ("plan_exec.aux_steps_s", "s"),
    ("plan_exec.final_step_s", "s"), ("plan_exec.tabulated_rows", "rows"),
    ("plan_exec.groups", "count"), ("plan_exec.survivors", "count"),
    ("plan_exec.survival_ratio", "ratio"), ("plan_exec.minor_mw", "Mwords"),
    ("output.time_s", "s"), ("output.rows", "rows"),
    ("memo.hits", "count"), ("memo.misses", "count"),
    ("memo.hit_ratio", "ratio"), ("sip.rows_pruned", "rows"),
    ("index_cache.hits", "count"), ("index_cache.misses", "count"),
    ("governor.peak_bytes", "bytes"), ("spill.partitions", "count"),
    ("spill.rows", "rows"), ("spill.bytes", "bytes"),
    ("spill.bytes_per_input_byte", "ratio"),
    ("trace.plan.run.self_s", "s"), ("trace.filter.step.self_s", "s"),
    ("trace.join.equi.self_s", "s"), ("trace.join.semi.self_s", "s"),
    ("trace.join.anti.self_s", "s"),
    ("trace.aggregate.group_by.self_s", "s"),
    ("trace.aggregate.group_filter.self_s", "s"),
    ("trace.other.self_s", "s"),
    ("trace.join.equi.probe_rows", "rows"),
    ("trace.join.equi.build_rows", "rows"),
    ("trace.pool.chunk.tasks", "count"),
    ("trace.overhead_s", "s"), ("unattributed_s", "s"),
]

RUN_TIMEOUT_S = 60
EXE = os.path.join("_build", "default", "flockbench", "flockbench.exe")


def fail(code, msg):
    print("flockbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail(2, "run from the repository root (dune-project and lib/ missing)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail(2, "neither dune nor opam found on PATH")
    p = subprocess.run(dune + ["build", "--root", ".",
                               "./flockbench/flockbench.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        fail(3, "build failed:\n" + p.stdout[-4000:])


def harness(args, env, timeout=RUN_TIMEOUT_S):
    """Run flockbench.exe; returns (exit code, stdout)."""
    p = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, env=env,
                       timeout=timeout)
    return p.returncode, p.stdout


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    p = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return p.stdout.strip() or "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def bench(workload, seed, seconds, trace, smoke):
    """One invocation: inputs, oracle, closed loop; returns the result."""
    nproc = len(os.sched_getaffinity(0))
    tag = "%s-seed%d%s" % (workload, seed, "-smoke" if smoke else "")
    work = os.path.join(".flockbench", tag)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    tmp = os.path.join(work, "tmp")
    os.makedirs(inputs)
    os.makedirs(tmp)
    # Runs see only the settings chosen here: the program's defaults, a
    # pool of at most two domains, and spill files inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("QF_")}
    env["QF_DOMAINS"] = str(min(2, nproc))
    env["TMPDIR"] = os.path.abspath(tmp)
    common = ["--workload", workload, "--dir", inputs]
    if smoke:
        common.append("--smoke")

    code, _ = harness(["gen", "--seed", str(seed)] + common, env)
    if code != 0:
        fail(4, "input generation failed")
    code, out = harness(["oracle"] + common, env)
    expect = out.split()
    if code != 0 or not expect:
        fail(4, "oracle failed")

    runs, traced, untraced, errors = [], [], [], []
    deadline = time.monotonic() + seconds
    while not runs or time.monotonic() < deadline:
        traced_run = trace == 1 and len(runs) % 2 == 0
        argv = ["run", "--expect", ",".join(expect)] + common
        try:
            code, out = harness(argv + (["--trace"] if traced_run else []),
                                env)
            lines = out.strip().splitlines()
            rec = json.loads(lines[-1]) if lines else {}
        except (subprocess.TimeoutExpired, ValueError) as e:
            code, rec = 1, {"ok": False, "error": repr(e)}
        runs.append(rec)
        if code == 0 and rec.get("ok"):
            (traced if traced_run else untraced).append(rec)
        else:
            errors.append(rec.get("error", "exit code %d" % code))
    shutil.rmtree(tmp, ignore_errors=True)

    def med(recs, name):
        return median([r["metrics"][name] for r in recs])

    good = traced + untraced
    stamp = dict(good[0]["stamp"]) if good else {}
    stamp.update({
        "git_sha": git_sha(), "nproc": nproc, "workload": workload,
        "seed": seed, "smoke": smoke, "seconds": seconds, "trace": trace,
        "qf_domains": env["QF_DOMAINS"],
        "input_rows": int(med(good, "csv.rows")),
        "input_bytes": int(med(good, "csv.bytes")),
    })
    if trace == 0:
        metrics = {n: {"value": med(untraced, n), "unit": u}
                   for n, u in END_TO_END}
    else:
        metrics = {n: {"value": med(traced, n), "unit": u}
                   for n, u in PER_LAYER if n != "trace.overhead_s"}
        overhead = med(traced, "wall_s") - med(untraced, "wall_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    failed = len(errors)
    result = {"correct": failed == 0, "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    report(stamp, trace, runs, traced, untraced, errors, metrics)
    os.makedirs(os.path.join(".flockbench", "results"), exist_ok=True)
    with open(os.path.join(".flockbench", "results", tag + "-trace%d.json"
                           % trace), "w") as f:
        json.dump({"stamp": stamp, "result": result, "errors": errors,
                   "runs": runs}, f, indent=1)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them traced and untraced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the smoke test)")
    a = ap.parse_args()

    build()
    if a.workload != "all":
        print(json.dumps(bench(a.workload, a.seed, a.seconds, a.trace,
                               a.smoke)))
        return
    for w in WORKLOADS:
        for trace in (0, 1):
            result = bench(w, a.seed, a.seconds, trace, a.smoke)
            print(json.dumps(dict(result, workload=w, trace=trace)))


def report(stamp, trace, runs, traced, untraced, errors, metrics):
    err = sys.stderr
    print("flockbench %s" % " ".join("%s=%s" % kv for kv in stamp.items()),
          file=err)
    print("runs: %d attempted, %d failed, error_rate %.4f "
          "(%d untraced, %d traced)"
          % (len(runs), len(errors), len(errors) / len(runs),
             len(untraced), len(traced)), file=err)
    for e in errors:
        print("  failure: %s" % e, file=err)
    base = traced if trace == 1 else untraced
    for n, m in metrics.items():
        vals = [r["metrics"][n] for r in base if n in r["metrics"]]
        spread = ("  [min %.6g, max %.6g, n=%d]" % (min(vals), max(vals),
                  len(vals)) if vals else "")
        print("  %-38s %14.6g %-7s%s" % (n, m["value"], m["unit"], spread),
              file=err)
    if trace == 1 and traced:
        # One traced run, the one with the median wall time, so the rows
        # add up exactly.
        mid = sorted(traced, key=lambda r: r["metrics"]["wall_s"])[
            len(traced) // 2]["metrics"]
        wall = mid["wall_s"]
        print("phase table (the median traced run; rows sum to wall_s "
              "%.4f s)" % wall, file=err)
        for n in PHASES:
            print("  %-38s %10.4f s %6.1f%%" % (n, mid[n], 100 * mid[n] / wall),
                  file=err)
            if n == "plan_exec.time_s":
                for k in NESTED:
                    print("    %-36s %10.4f s %6.1f%%"
                          % (k, mid[k], 100 * mid[k] / wall), file=err)
        print("  %-38s %10.4f s" % ("trace.overhead_s",
              metrics["trace.overhead_s"]["value"]), file=err)


if __name__ == "__main__":
    main()
