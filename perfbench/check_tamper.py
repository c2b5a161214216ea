"""Shows that the certify_warm check can fail.

    python3 perfbench/check_tamper.py

Copies .harborth-cache/ into .perfbench/, raises the constant term of x_A
in stage7.json by 1, and runs one certify_warm operation on the copy.
`harborth certify` trusts the cached table, so its report still passes.
Exits 0 only if the benchmark's check rejects that report.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run


def main():
    run.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tamper-", dir=run.OUT_DIR))
    try:
        cache = tmp / "cache"
        shutil.copytree(run.ROOT / ".harborth-cache", cache)
        path = cache / "stage7.json"
        blob = json.loads(path.read_text())
        rec = next(r for r in blob["records"] if r["name"] == "x_A")
        rec["poly"]["coeffs"][0] = str(int(rec["poly"]["coeffs"][0]) + 1)
        path.write_text(json.dumps(blob, sort_keys=True) + "\n")
        res = run.run_child("certify_warm", cache, tmp, False, None)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if res is None:
        print("the certify_warm operation failed to run", file=sys.stderr)
        return 1
    report = res["outputs"]
    print("program verdict on the tampered cache: all_checks_passed=%s, "
          "x_A matches_reference=%s" % (
              report["all_checks_passed"],
              report["tables"]["x_A"]["matches_reference"]))
    try:
        run.check("certify_warm", report, 0)
    except checks.CheckFailed as exc:
        print("benchmark check rejects it: %s" % exc)
        return 0
    print("benchmark check accepted the tampered cache", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
