"""Every metric the benchmark reports, name -> unit.

README.md defines each one.  ``BENCHMARK.json`` lists the same names;
``smoke.py`` checks that the two agree and that a run emits each one
with its unit.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

STAGES = ("markdup", "metadata", "bqsr")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
    "modelled_cycles": "cycles",
    "paper_speedup_err_pct": "%",
    "job_p50_us": "us",
    "job_p90_us": "us",
    "slo_frac": "fraction",
}

PER_LAYER = {}
for _stage in STAGES:
    PER_LAYER.update({
        f"hw.{_stage}.kernel_cycles": "cycles",
        f"hw.{_stage}.spm_load_cycles": "cycles",
        f"hw.{_stage}.engine_s": "s",
        f"hw.{_stage}.ticks": "count",
        f"hw.{_stage}.ns_per_tick": "ns",
        f"hw.{_stage}.skip_ratio": "fraction",
    })
PER_LAYER.update({"hw.bqsr.drain_cycles": "cycles", "hw.bqsr.drain_s": "s"})
for _stage in STAGES:
    PER_LAYER.update({
        f"accel.{_stage}_s": "s",
        f"accel.{_stage}.overhead_s": "s",
        f"accel.{_stage}.waves": "count",
    })
PER_LAYER.update({
    "accel.spm_hit_ratio": "fraction",
    "storage.plan_s": "s",
    "storage.pruned_frac": "fraction",
    "storage.h2d_saved_bytes": "bytes",
    "runtime.busy_us": "us",
    "runtime.h2d_us": "us",
    "runtime.imbalance": "ratio",
    "genomics.parse_s": "s",
    "genomics.write_s": "s",
    "gatk.markdup_host_s": "s",
    "tables.partition_s": "s",
    "tables.partitions": "count",
    "host.tag_s": "s",
    "bench.pass_s": "s",
    "serve.run_s": "s",
    "serve.waves": "count",
    "serve.retries": "count",
    "serve.spm_hit_ratio": "fraction",
    "serve.queue_wait_us": "us",
    "serve.transfer_us": "us",
    "serve.spm_load_us": "us",
    "serve.kernel_us": "us",
    "obs.trace_overhead_frac": "fraction",
})


def tail_percentile(count: int) -> Optional[int]:
    """The highest of p99/p90/p75/p50 that leaves at least ten samples
    beyond its nearest rank, or ``None``."""
    for pct in (99, 90, 75, 50):
        if count - math.ceil(pct / 100 * count) >= 10:
            return pct
    return None


def describe_samples(values: Sequence[float]) -> str:
    """A note on a host timing: its sample count, range and tail
    percentile."""
    ordered = sorted(values)
    note = (f"median of {len(ordered)} "
            f"(min {ordered[0]:.4g}, max {ordered[-1]:.4g}); ")
    pct = tail_percentile(len(ordered))
    if pct is None:
        return note + "no tail percentile (needs >= 11)"
    rank = math.ceil(pct / 100 * len(ordered))
    return note + f"p{pct} {ordered[rank - 1]:.4g}"
