"""Set-up, warm-up, timed passes and the metrics of one run."""

from __future__ import annotations

import math
import os
import resource
import tempfile
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List

from repro.obs.spans import SpanRecorder

from hostspeed import HostSpeed
from metrics import END_TO_END, PER_LAYER, describe_samples
from passes import PassResult, PassTracer, run_preprocess_pass, run_serve_pass
from workloads import (
    ServeOracle,
    ServeShape,
    expected_preprocess,
    make_preprocess_inputs,
    make_serve_inputs,
)

#: Set-ups are timed in batches of about this many seconds, so that
#: one sample outlasts the host's brief stalls; ``setup_s`` is the
#: median batch's seconds per set-up.
SETUP_BATCH_S = 0.2
#: Fewest set-up batches per run.
SETUPS = 9


def peak_rss_mb() -> float:
    """This process's high-water RSS plus its largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit)
    metrics: Dict[str, tuple]
    lines: List[str]


class Runner:
    """Passes of one workload shape and seed.  Traced serve passes write
    their ledgers to a temporary directory under ``workdir``, removed by
    :meth:`close`."""

    def __init__(self, shape, seed: int, workdir: str):
        self.shape = shape
        self.seed = seed
        self.workdir = workdir
        self.serve = isinstance(shape, ServeShape)
        self._tmp = None
        self._count = 0

    def inputs(self, shape):
        make = make_serve_inputs if self.serve else make_preprocess_inputs
        return make(shape, self.seed)

    def expected(self, shape, inputs):
        if self.serve:
            return ServeOracle(inputs)
        return expected_preprocess(shape, inputs)

    def one_pass(self, shape, inputs, expected, traced: bool) -> PassResult:
        self._count += 1
        tracer = PassTracer()
        if traced:
            tracer = PassTracer(SpanRecorder(), trace_id=f"pass-{self._count}")
        if not self.serve:
            result = run_preprocess_pass(shape, inputs, expected, tracer)
        else:
            ledger = None
            if traced:
                if self._tmp is None:
                    self._tmp = tempfile.TemporaryDirectory(
                        dir=self.workdir, prefix=".perfbench-"
                    )
                ledger = os.path.join(self._tmp.name,
                                      f"ledger-{self._count}.jsonl")
            result = run_serve_pass(shape, inputs, expected, tracer, ledger)
        if traced:
            result.metrics.update(tracer.self_seconds())
            for stage, seconds in result.critical_engine_s.items():
                result.metrics[f"accel.{stage}.overhead_s"] = (
                    result.metrics[f"accel.{stage}_s"] - seconds
                )
        return result

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None


def run(name: str, shape, warmup_shape, seed: int, seconds: float,
        trace: bool, workdir: str) -> RunResult:
    """Measure one workload: end-to-end metrics, or with ``trace`` the
    per-layer ones."""
    runner = Runner(shape, seed, workdir)
    try:
        return _measure(runner, name, shape, warmup_shape, seed, seconds,
                        trace)
    finally:
        runner.close()


def _measure(runner, name, shape, warmup_shape, seed, seconds, trace):
    run_started = time.perf_counter()
    inputs = runner.inputs(shape)
    batch = max(1, math.ceil(SETUP_BATCH_S
                             / (time.perf_counter() - run_started)))
    expected = runner.expected(shape, inputs)
    setup_times = []

    def set_up():
        started = time.perf_counter()
        for _ in range(batch):
            runner.inputs(shape)
        elapsed = time.perf_counter() - started
        speed.mark()
        setup_times.append(speed.scale(elapsed) / batch)

    # Warm-up on a tiny input of the same workload: first-call imports,
    # pool start-up paths and the ledger writer, none of them timed.
    if warmup_shape is not None:
        tiny = runner.inputs(warmup_shape)
        runner.one_pass(warmup_shape, tiny, runner.expected(warmup_shape, tiny),
                        traced=trace)

    # One full pass, checked but not timed, sets the memory high-water:
    # later passes only add heap fragmentation, and the host-speed probe
    # built next holds 40 MB of its own.
    plain: List[PassResult] = [
        runner.one_pass(shape, inputs, expected, traced=False)
    ]
    rss = peak_rss_mb()
    speed = HostSpeed()

    # Timed passes (untraced, or untraced + traced pairs) run while the
    # next one is expected to end within ``seconds`` of the run's start;
    # at least one always runs.  A set-up batch follows each pass, so the
    # set-up samples span the run's host-speed swings as the pass samples
    # do.  A probe closes every timed region, so each region lies between
    # two probes.
    traced: List[PassResult] = []
    walls: List[float] = []
    started = time.perf_counter()
    speed.mark()
    while True:
        plain.append(runner.one_pass(shape, inputs, expected, traced=False))
        speed.mark()
        walls.append(speed.scale(plain[-1].wall_s))
        if trace:
            traced.append(runner.one_pass(shape, inputs, expected,
                                          traced=True))
            speed.mark()
        set_up()
        now = time.perf_counter()
        if now + (now - started) / len(walls) > run_started + seconds:
            break
    while len(setup_times) < SETUPS:
        set_up()

    elapsed = time.perf_counter() - run_started
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    rejected = sum(p.rejected for p in passes)
    repeats = all(p.exact == passes[0].exact for p in passes)
    wall = median(walls)
    raw_walls = [p.wall_s for p in plain[1:]]
    first = plain[0].metrics

    lines = [
        f"perfbench {name} seed={seed}: {len(plain)} untraced"
        + (f" + {len(traced)} traced" if trace else "")
        + f" pass(es), {len(walls)} timed, in {elapsed:.1f} s",
        f"  output check: {failed}/{attempted} wrong or missing "
        f"(failed_frac {failed / attempted:.4g} fraction); "
        f"rejected_frac {rejected / attempted:.4g} fraction",
        "  modelled counts repeat exactly across passes: "
        + ("yes" if repeats else "NO"),
        "  host seconds below are at the reference host speed; "
        f"host-speed probe {describe_samples(speed.probes)} s",
    ]
    if trace:
        metrics = _per_layer(traced, plain)
        catalogue = PER_LAYER
    else:
        metrics = {
            "setup_s": median(setup_times),
            "wall_s": wall,
            "sim_cycles_per_s": first["sim_cycles"] / wall,
            "peak_rss_mb": rss,
        }
        for key in ("modelled_cycles", "paper_speedup_err_pct",
                    "job_p50_us", "job_p90_us", "slo_frac"):
            metrics[key] = first[key]
        catalogue = END_TO_END
    notes = {
        "setup_s": f"{batch} per batch, " + describe_samples(setup_times),
        "wall_s": describe_samples(walls) + "; as measured: "
                  f"{median(raw_walls):.6g} s, " + describe_samples(raw_walls),
        "job_p50_us": _latency_note(runner),
        "job_p90_us": _latency_note(runner),
    }
    for key, unit in catalogue.items():
        note = notes.get(key, "")
        lines.append(f"  {key:<28} {metrics[key]:>16.6g} {unit:<9} {note}")
    reported = {key: (metrics[key], unit)
                for key, unit in catalogue.items()}
    return RunResult(failed == 0 and repeats, attempted, failed, reported,
                     lines)


def _latency_note(runner) -> str:
    if not runner.serve:
        return "one job per pass"
    jobs = runner.shape.rounds * runner.shape.tenants
    return f"nearest rank over {jobs} submitted jobs"


def _per_layer(traced: List[PassResult], plain: List[PassResult]):
    """Medians over the traced passes; a layer the workload never calls
    reads 0."""
    metrics = {}
    for key in PER_LAYER:
        values = [p.metrics[key] for p in traced if key in p.metrics]
        metrics[key] = median(values) if values else 0.0
    metrics["obs.trace_overhead_frac"] = (
        median(p.wall_s for p in traced) / median(p.wall_s for p in plain) - 1
    )
    return metrics
