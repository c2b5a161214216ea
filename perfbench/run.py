"""Benchmark of the harborth derivation and certification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation runs in a fresh
interpreter (perfbench/child.py) on a private copy of the committed
.harborth-cache/; operations are repeated while another one still fits in
S seconds (at least one runs).  Eight more interpreters only set up, so
setup_s is a median over at least nine.  The outputs of every operation
are checked by perfbench/checks.py, outside the timed region.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (medians) under --trace 0 and the per-layer
metrics of perfbench/tracing.py under --trace 1.  Per-run details and span
files go to .perfbench/ at the root of the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("certify_warm", "derive_circle_cut", "derive_parameter")
SETUP_PROBES = 8
CHILD_TIMEOUT = 150


def run_child(workload, cache_source, work_root, setup_only, trace_file):
    work = Path(tempfile.mkdtemp(prefix="op-", dir=work_root))
    out = work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--cache-source", str(cache_source), "--work", str(work),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    # a fixed hash seed keeps set iteration order, and so the work done,
    # the same in every operation
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONHASHSEED="0")
    try:
        cmd += ["--t-spawn", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT),
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            return None
        with open(out) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        sys.stderr.write("operation timed out after %d s\n" % CHILD_TIMEOUT)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check(workload, outputs, seed):
    if workload == "derive_circle_cut":
        checks.check_circle_cut(outputs, seed)
        return
    coords = checks.reference_coordinates()
    if workload == "certify_warm":
        checks.check_certify(outputs, coords)
    else:
        checks.check_parameter(outputs, coords)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cache_source = ROOT / ".harborth-cache"
    if not (ROOT / "src" / "harborth").is_dir() or not cache_source.is_dir():
        print("run from a checkout with src/harborth and .harborth-cache/",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work_root = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    ops, setups, failures = [], [], []
    try:
        start = time.monotonic()
        while True:
            trace_file = (OUT_DIR / ("spans-%s-op%d.jsonl" % (tag, len(ops)))
                          if args.trace else None)
            res = run_child(args.workload, cache_source, work_root, False,
                            trace_file)
            ops.append(res)
            last = res["wall_s"] if res else 0.0
            if time.monotonic() - start + last >= args.seconds or not res:
                break
        for _ in range(SETUP_PROBES):
            res = run_child(args.workload, cache_source, work_root, True,
                            None)
            if res:
                setups.append(res["setup_s"])
            else:
                failures.append("a set-up probe failed")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    done = [r for r in ops if r is not None]
    failed = len(ops) - len(done)
    # nothing checked is nothing shown correct
    correct = bool(done)
    for r in done:
        try:
            check(args.workload, r["outputs"], args.seed)
        except Exception as exc:  # any check error marks the run incorrect
            failures.append("check failed: %s: %s"
                            % (type(exc).__name__, exc))
            correct = False

    def med(key):
        return statistics.median(r[key] for r in done)

    metrics = {}
    if done and args.trace:
        for k in done[0]["layers"]:
            vals = [r["layers"][k] for r in done]
            if k.endswith(".calls"):
                metrics[k] = {"value": statistics.median_low(vals),
                              "unit": "count"}
            else:
                metrics[k] = {"value": statistics.median(vals),
                              "unit": "share" if k.endswith("_share")
                              else "s"}
        metrics["trace.wall_s"] = {"value": med("wall_s"), "unit": "s"}
    elif done:
        metrics = {
            "wall_s": {"value": med("wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(
                setups + [r["setup_s"] for r in done]), "unit": "s"},
            "peak_rss_mib": {"value": med("peak_rss_mib"), "unit": "MiB"},
        }
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "ops": [{k: r[k] for k in r if k != "outputs"} if r else None
                      for r in ops],
              "setup_probes_s": setups, "failures": failures,
              "cpu_s": med("cpu_s") if done else None}
    with open(OUT_DIR / ("result-%s.json" % tag), "w") as fh:
        json.dump(detail, fh, indent=1)
    for msg in failures:
        print(msg, file=sys.stderr)
    if not done:
        print("no operation completed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if done else 1


if __name__ == "__main__":
    sys.exit(main())
