"""End-to-end preprocess / serve benchmark with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload preprocess-deep --seed 1 \\
        --seconds 40 --trace 0

It builds the workload's inputs from ``--seed`` (several times, for
``setup_s``), computes the expected outputs in software, warms up on a
tiny input, then runs passes until ``--seconds`` have elapsed, checking
every pass's output and that the modelled counts repeat exactly.  Host
times are scaled to a reference host speed by a probe run between the
timed regions (``hostspeed.py``).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the same numbers for a reader.  The exit code is 0 only when
every output was right and every modelled count repeated; it is 2, with
no result, when the working directory holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("preprocess-deep", "preprocess-wide", "serve-mix")
#: The seed README.md's figures were measured on, and one kept out of
#: every tuning decision.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end preprocess / serve benchmark."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="run passes for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout_source(root: str) -> bool:
    """Import ``repro`` from ``<root>/src``, writing no bytecode there.
    False when the directory holds no program to measure."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        return False
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, src)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not use_checkout_source(root):
        print(f"perfbench: no src/repro under {root}; run it from the "
              "repository root", file=sys.stderr)
        return 2
    import measure
    from workloads import SHAPES, TINY

    result = measure.run(
        args.workload, SHAPES[args.workload], TINY[args.workload],
        args.seed, args.seconds, bool(args.trace), root,
    )
    for line in result.lines:
        print(line)
    print(json.dumps(result_json(result)))
    return 0 if result.correct else 1


def result_json(result) -> dict:
    """The result line: correctness, counts, and every metric with its
    unit."""
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in result.metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
