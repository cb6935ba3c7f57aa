"""One pass of each workload, timed from outside the program.

A pass calls each layer's public functions in the order a user's run
would, reads the ``hw``/``runtime`` counters those calls return, and
checks the outputs after the clock stops.  With a tracer, each call also
becomes a span (name, start, end, parent, per-pass trace id); layer
seconds are the spans' self times.
"""

from __future__ import annotations

import io
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import mean
from typing import Dict, List, Optional

from repro.accel.markdup import run_quality_sums
from repro.accel.scheduler import (
    BqsrWaveDriver,
    MetadataWaveDriver,
    SpmImageCache,
    pack_waves,
)
from repro.accel.sharding import reduce_bqsr_results, run_sharded
from repro.eval.experiments import PAPER_TARGETS
from repro.gatk.markdup import mark_duplicates
from repro.genomics.sam import read_sam, write_sam
from repro.obs.analyze import critical_path_from_ledger
from repro.obs.ledger import RunLedger, RunManifest, run_context
from repro.obs.registry import nearest_rank_percentile
from repro.obs.spans import SpanRecorder
from repro.perf import CLOCK_HZ, PAPER_READS, model_stage
from repro.serve import JobService
from repro.serve.job import COMPLETED, FAILED, REJECTED
from repro.storage import plan_storage_filter
from repro.tables.genomic_tables import count_bases, reads_to_table
from repro.tables.partition import (
    partition_reads,
    partition_reads_by_group,
    partition_reference,
)

from metrics import STAGES
from workloads import check_preprocess, overlap, parse_genome

#: Modelled counts that must repeat exactly across passes of one seed.
EXACT = tuple(
    f"hw.{stage}.{field}" for stage in STAGES
    for field in ("kernel_cycles", "spm_load_cycles")
) + ("hw.bqsr.drain_cycles", "modelled_cycles")
#: ``repro.perf`` calibration and ``PAPER_TARGETS`` key of each stage.
PERF_STAGE = {"markdup": "markdup", "metadata": "metadata", "bqsr": "bqsr_table"}
CYCLES_PER_US = CLOCK_HZ / 1e6


class PassTracer:
    """Spans around the benchmark's calls into each layer; a no-op when
    built without a recorder, so untraced passes pay nothing."""

    def __init__(self, recorder: Optional[SpanRecorder] = None,
                 trace_id: str = ""):
        self.recorder = recorder
        self.trace_id = trace_id
        self._stack: List[int] = []

    def span(self, name: str):
        if self.recorder is None:
            return nullcontext()
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        span_id = self.recorder.reserve()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.recorder.record(
                name, "host", start, end, trace_id=self.trace_id,
                parent_id=parent, lane="bench", span_id=span_id,
            )

    def self_seconds(self) -> Dict[str, float]:
        """Each span's duration minus the part its child spans cover,
        keyed ``<span name>_s``."""
        spans = self.recorder.spans
        child_time: Dict[int, float] = {}
        for span in spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = (
                    child_time.get(span.parent_id, 0.0) + span.duration
                )
        out: Dict[str, float] = {}
        for span in spans:
            key = f"{span.name}_s"
            out[key] = out.get(key, 0.0) + (
                span.duration - child_time.get(span.span_id, 0.0)
            )
        return out


@dataclass
class PassResult:
    """What one pass measured.  ``exact`` holds the modelled counts that
    must repeat bit-for-bit across passes of one seed;
    ``critical_engine_s`` the slowest card's engine seconds per stage."""

    wall_s: float
    attempted: int
    failed: int
    rejected: int
    metrics: Dict[str, float]
    exact: tuple
    critical_engine_s: Dict[str, float] = field(default_factory=dict)


def _stats_of(result):
    """The engine RunStats a per-partition accelerator result carries."""
    if hasattr(result, "quality_sums"):
        return result.stats
    return result.run.stats if result.run is not None else None


def _hw(prefix: str, kernel: int, load: int, engine_s: float,
        executed: int, possible: int) -> Dict[str, float]:
    return {
        f"{prefix}.kernel_cycles": kernel,
        f"{prefix}.spm_load_cycles": load,
        f"{prefix}.engine_s": engine_s,
        f"{prefix}.ticks": executed,
        f"{prefix}.ns_per_tick": engine_s * 1e9 / executed if executed else 0.0,
        f"{prefix}.skip_ratio": 1.0 - executed / possible if possible else 0.0,
    }


def speedup_error_pct(cycles_per_base: Dict[str, float]) -> float:
    """Mean relative error (%) of the modelled paper-scale speedups,
    using this pass's measured cycles per base, against the paper's."""
    errors = []
    for stage in STAGES:
        key = PERF_STAGE[stage]
        speedup = model_stage(key, PAPER_READS, 151,
                              cycles_per_base[stage]).speedup
        target = PAPER_TARGETS["speedup"][key]
        errors.append(abs(speedup - target) / target)
    return 100.0 * mean(errors)


def cycles_per_base(waves, per_wave_cycles) -> float:
    """Cycles per base of one pipeline, the rate ``model_stage`` scales
    by its pipeline count: a wave lasts as long as its largest replica,
    so each wave's cycles are divided by that replica's bases."""
    bases = sum(max(count_bases(part) for _pid, part in wave) for wave in waves)
    return sum(per_wave_cycles) / bases


def _imbalance(busy: List[float]) -> float:
    """Busiest card over the mean card (1.0 is balanced; 0 without a pool)."""
    return max(busy) / mean(busy) if busy and mean(busy) > 0 else 0.0


# -- preprocess -----------------------------------------------------------------


def _sharded_hw(prefix: str, stats):
    per_device = stats.per_device
    out = _hw(
        prefix, stats.total_cycles, stats.spm_load_cycles,
        stats.wall_seconds,
        sum(d.ticks_executed for d in per_device),
        sum(d.ticks_possible for d in per_device),
    )
    out["critical_engine_s"] = max(d.wall_seconds for d in per_device)
    return out


def run_preprocess_pass(shape, inputs, expected,
                        tracer: PassTracer) -> PassResult:
    """SAM + FASTA text in, tagged SAM text and covariate tables out:
    parse, mark duplicates (quality-sum engine + host selection),
    partition, metadata update, BQSR covariate tables, tag, write."""
    span = tracer.span
    started = time.perf_counter()
    with span("bench.pass"):
        with span("genomics.parse"):
            genome = parse_genome(inputs)
            reads = read_sam(io.StringIO(inputs.sam))
        with span("accel.markdup"):
            sums = run_quality_sums([read.qual for read in reads])
        with span("gatk.markdup_host"):
            marked = mark_duplicates(reads, quality_sums=sums.quality_sums)
        with span("tables.partition"):
            table = reads_to_table(marked.sorted_reads)
            reference = partition_reference(genome, shape.psize,
                                            overlap(shape.read_length))
            positions = list(partition_reads(table, shape.psize))
            groups = list(partition_reads_by_group(table, shape.psize))
        storage = None
        if shape.storage_filter:
            with span("storage.plan"):
                storage = plan_storage_filter(positions + groups, reference)
        cache = SpmImageCache()
        topology = dict(devices=shape.devices, workers=shape.workers,
                        spm_cache=cache, storage=storage)
        with span("accel.metadata"):
            meta, meta_stats = run_sharded(
                MetadataWaveDriver(reference=reference), positions,
                shape.pipelines, **topology,
            )
        with span("accel.bqsr"):
            bqsr, bqsr_stats = run_sharded(
                BqsrWaveDriver(reference=reference,
                               read_length=shape.read_length),
                groups, shape.pipelines, **topology,
            )
        with span("host.tag"):
            covariates = reduce_bqsr_results(bqsr, shape.read_length)
            for pid, part in positions:
                result = meta[pid]
                for rowid, nm, md, uq in zip(part.column("ROWID").tolist(),
                                             result.nm, result.md, result.uq):
                    marked.sorted_reads[rowid].tags.update(NM=nm, MD=md, UQ=uq)
        with span("genomics.write"):
            out = io.StringIO()
            write_sam(out, marked.sorted_reads, genome)
    wall = time.perf_counter() - started

    failed = check_preprocess(expected, out.getvalue(), covariates)
    metrics: Dict[str, float] = {"slo_frac": float(failed == 0)}

    md_stats = sums.stats
    drains = [r.drain_stats for r in bqsr.values() if r.drain_stats is not None]
    drain_cycles = sum(d.cycles for d in drains)
    metrics.update(_hw("hw.markdup", md_stats.cycles, 0, md_stats.wall_seconds,
                       md_stats.ticks_executed, md_stats.ticks_possible))
    meta_hw = _sharded_hw("hw.metadata", meta_stats)
    bqsr_hw = _sharded_hw("hw.bqsr", bqsr_stats)
    critical = {
        "markdup": md_stats.wall_seconds,
        "metadata": meta_hw.pop("critical_engine_s"),
        "bqsr": bqsr_hw.pop("critical_engine_s"),
    }
    metrics.update(meta_hw)
    metrics.update(bqsr_hw)
    metrics["hw.bqsr.drain_cycles"] = drain_cycles
    metrics["hw.bqsr.drain_s"] = sum(d.wall_seconds for d in drains)
    metrics["accel.markdup.waves"] = 1
    metrics["accel.metadata.waves"] = meta_stats.waves
    metrics["accel.bqsr.waves"] = bqsr_stats.waves
    hits = meta_stats.spm_cache_hits + bqsr_stats.spm_cache_hits
    misses = meta_stats.spm_cache_misses + bqsr_stats.spm_cache_misses
    metrics["accel.spm_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["tables.partitions"] = len(positions) + len(groups)
    if storage is not None:
        metrics["storage.pruned_frac"] = storage.filtered_fraction
        metrics["storage.h2d_saved_bytes"] = storage.saved_nbytes
    busy = [a + b for a, b in zip(meta_stats.device_busy_seconds,
                                  bqsr_stats.device_busy_seconds)]
    metrics["runtime.busy_us"] = sum(busy) * 1e6
    metrics["runtime.h2d_us"] = 1e6 * (
        sum(meta_stats.device_transfer_seconds)
        + sum(bqsr_stats.device_transfer_seconds)
    )
    metrics["runtime.imbalance"] = _imbalance(busy)

    kernel = md_stats.cycles + meta_stats.total_cycles + bqsr_stats.total_cycles
    load = meta_stats.spm_load_cycles + bqsr_stats.spm_load_cycles
    modelled = kernel + load
    metrics["modelled_cycles"] = modelled
    metrics["sim_cycles"] = kernel + load + drain_cycles
    # A preprocess pass is one job on idle cards: p50 = p90 = its
    # modelled latency, and it meets the limit when its output is right.
    metrics["job_p50_us"] = metrics["job_p90_us"] = modelled / CYCLES_PER_US
    metrics["paper_speedup_err_pct"] = speedup_error_pct({
        "markdup": md_stats.cycles / sum(len(read.qual) for read in reads),
        "metadata": cycles_per_base(pack_waves(positions, shape.pipelines)[1],
                                    meta_stats.per_wave_cycles),
        "bqsr": cycles_per_base(pack_waves(groups, shape.pipelines)[1],
                                bqsr_stats.per_wave_cycles),
    })
    exact = tuple(metrics[key] for key in EXACT)
    return PassResult(wall, len(expected.reads), failed, 0, metrics, exact,
                      critical)


# -- serve ----------------------------------------------------------------------


def run_serve_pass(shape, inputs, oracle, tracer: PassTracer,
                   ledger_path: Optional[str] = None) -> PassResult:
    """Submit the seeded arrival trace to a fresh ``JobService`` and run
    it until idle.  With ``ledger_path`` the run records its ledger
    there, for the critical-path decomposition."""
    span = tracer.span
    context = nullcontext()
    if ledger_path is not None:
        manifest = RunManifest(workload="perfbench-serve-mix",
                               seed=inputs.seed)
        context = run_context(manifest, RunLedger(ledger_path))
    started = time.perf_counter()
    with context, span("bench.pass"):
        service = JobService(devices=shape.devices, workers=shape.workers)
        for at_cycles, spec in inputs.jobs:
            service.schedule(spec, at_cycles=at_cycles)
        with span("serve.run"):
            summary = service.run_until_idle()
    wall = time.perf_counter() - started

    statuses = service.jobs()
    failed = 0
    latencies: List[int] = []
    slo_met = 0
    completed_results = []
    for status, (_at, spec) in zip(statuses, inputs.jobs):
        if status.state == REJECTED:
            continue
        ok = (status.state == COMPLETED and status.tenant == spec.tenant
              and status.stage == spec.stage)
        if ok:
            results = service.results(status.job_id)
            ok = all(
                pid in results
                and oracle.matches(spec.stage, pid, part, results[pid])
                for pid, part in spec.partitions
            )
            completed_results.append((spec, results))
            latencies.append(status.latency_cycles)
            slo_met += ok and status.latency_cycles <= shape.slo_cycles
        failed += not ok or status.state == FAILED
    failed += max(0, len(inputs.jobs) - len(statuses))

    metrics = _serve_counters(service, inputs, completed_results)
    metrics["serve.waves"] = summary.waves_dispatched
    metrics["serve.retries"] = summary.retries
    lookups = summary.spm_hits + summary.spm_misses
    metrics["serve.spm_hit_ratio"] = summary.spm_hits / lookups if lookups else 0.0
    busy = summary.device_busy_seconds
    metrics["runtime.busy_us"] = sum(busy) * 1e6
    metrics["runtime.h2d_us"] = sum(summary.device_transfer_seconds) * 1e6
    metrics["runtime.imbalance"] = _imbalance(busy)
    ordered = sorted(latencies)
    metrics["job_p50_us"] = nearest_rank_percentile(ordered, 50) / CYCLES_PER_US
    metrics["job_p90_us"] = nearest_rank_percentile(ordered, 90) / CYCLES_PER_US
    metrics["slo_frac"] = slo_met / len(inputs.jobs)

    if ledger_path is not None:
        report = critical_path_from_ledger(RunLedger(ledger_path))
        totals = report.totals()
        for category in ("queue_wait", "transfer", "spm_load", "kernel"):
            metrics[f"serve.{category}_us"] = (
                totals.get(category, 0) / len(report.jobs) / CYCLES_PER_US
            )
    exact = tuple(metrics[key] for key in EXACT) + tuple(
        status.latency_cycles for status in statuses
    )
    return PassResult(wall, len(inputs.jobs), failed, summary.jobs_rejected,
                      metrics, exact)


def _serve_counters(service, inputs, completed_results) -> Dict[str, float]:
    """Per-stage engine counters of a served run, from the service's
    event log and the results each completed job returned."""
    specs = [spec for _at, spec in inputs.jobs]
    kernel = dict.fromkeys(STAGES, 0)
    load = dict.fromkeys(STAGES, 0)
    waves = {stage: ([], []) for stage in STAGES}
    for event, fields in service.events:
        if event != "serve.wave.done":
            continue
        spec = specs[fields["job"]]
        kernel[spec.stage] += fields["cycles"]
        load[spec.stage] += fields["load_cycles"]
        done, cycles = waves[spec.stage]
        done.append(pack_waves(spec.partitions, spec.n_pipelines)[1][fields["wave"]])
        cycles.append(fields["cycles"])

    engine_s = dict.fromkeys(STAGES, 0.0)
    executed = dict.fromkeys(STAGES, 0)
    possible = dict.fromkeys(STAGES, 0)
    drain_cycles = 0
    drain_s = 0.0
    for spec, results in completed_results:
        # one RunStats per wave, shared by the wave's partitions
        wave_stats = {id(s): s for s in map(_stats_of, results.values()) if s}
        for stats in wave_stats.values():
            engine_s[spec.stage] += stats.wall_seconds
            executed[spec.stage] += stats.ticks_executed
            possible[spec.stage] += stats.ticks_possible
        for result in results.values():
            drain = getattr(result, "drain_stats", None)
            if drain is not None:
                drain_cycles += drain.cycles
                drain_s += drain.wall_seconds

    metrics: Dict[str, float] = {}
    for stage in STAGES:
        metrics.update(_hw(f"hw.{stage}", kernel[stage], load[stage],
                           engine_s[stage], executed[stage], possible[stage]))
    metrics["hw.bqsr.drain_cycles"] = drain_cycles
    metrics["hw.bqsr.drain_s"] = drain_s
    modelled = sum(kernel.values()) + sum(load.values())
    metrics["modelled_cycles"] = modelled
    metrics["sim_cycles"] = modelled + drain_cycles
    metrics["paper_speedup_err_pct"] = speedup_error_pct({
        stage: cycles_per_base(*waves[stage]) for stage in STAGES
    })
    return metrics
