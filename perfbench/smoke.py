"""Smoke check of the benchmark at tiny size.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload, with and without tracing, it runs one tiny pass and
checks that the output check passed and that the result line carries
every metric BENCHMARK.json names, each with its unit.  It checks that
BENCHMARK.json and ``metrics.py`` list the same workloads and metrics,
that the runs left no file behind in the repository (``.repro/`` ledger
included), and that ``run.py`` exits non-zero without a result in a
directory that holds only BENCHMARK.json and ``perfbench/``.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def snapshot(root: str) -> dict:
    """Path -> (size, mtime) of every file outside ``.git``."""
    files = {}
    for folder, dirs, names in os.walk(root):
        dirs[:] = [d for d in dirs if d != ".git"]
        for name in names:
            path = os.path.join(folder, name)
            stat = os.stat(path)
            files[os.path.relpath(path, root)] = (stat.st_size, stat.st_mtime_ns)
    return files


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"smoke: FAIL: {message}")
        sys.exit(1)


def check_bare_directory(root: str) -> None:
    """run.py must refuse to run where there is no program."""
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-smoke-") as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve-mix",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
    check(proc.returncode != 0, "run.py exited 0 without src/repro")
    check('"metrics"' not in proc.stdout,
          "run.py printed a result without src/repro")


def main() -> int:
    root = os.getcwd()
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    import run

    check(run.use_checkout_source(root), "run from the repository root")
    import measure
    from metrics import END_TO_END, PER_LAYER
    from workloads import TINY

    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")
    for section, catalogue in (("end_to_end", END_TO_END),
                               ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[section]}
        check(listed == catalogue,
              f"BENCHMARK.json {section} differs from metrics.py")

    before = snapshot(root)
    for name in run.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.result_json(measure.run(
                name, TINY[name], None, run.HELD_OUT_SEED, 0.0, trace, root,
            ))
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{name} trace={int(trace)}: output check failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[section]}
            check(got == want,
                  f"{name} trace={int(trace)}: metrics or units differ")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{name} trace={int(trace)}: a value is not a number")
            print(f"smoke: {name} trace={int(trace)}: "
                  f"{len(got)} metrics, {result['attempted']} checked")
    check(snapshot(root) == before, "a run left or changed files in the repo")

    check_bare_directory(root)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
