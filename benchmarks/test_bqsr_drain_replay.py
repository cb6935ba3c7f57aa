"""BQSR drain replay: one drain simulation per key, identical results.

Not a paper figure — this gate pins the drain replay of DESIGN.md §3.2.
Every BQSR partition ends by streaming its four count scratchpads back
to memory (Figure 12's SPM Reader -> Memory Writer tails).  Those cycles
depend only on the SPM sizes, the memory configuration and the engine
mode, so ``drain_spms`` simulates each key once per process and replays
it afterwards.  Over the ``repro bench`` workload's read-group
partitions a serial ``run_partitioned`` must (a) simulate the drain at
most once per key, and (b) return covariate arrays and drain cycles
equal to a fresh per-partition simulation.  Deterministic: no host
timing is asserted.

Reproduce: ``PYTHONPATH=src python -m pytest -q \
benchmarks/test_bqsr_drain_replay.py``.
"""

from collections import Counter

import numpy as np

from repro.accel import bqsr
from repro.accel.bqsr import BqsrSpms, drain_key, run_bqsr_partition
from repro.obs.bench import BenchContext, bqsr_stage_run

COUNT_FIELDS = ("total_cycle", "total_context", "error_cycle", "error_context")


def _loaded_spms(result, read_length):
    """Scratchpads holding one partition's harvested counts."""
    spms = BqsrSpms.allocate(read_length)
    for spm, counts in zip(spms.all(), (getattr(result, f) for f in COUNT_FIELDS)):
        spm.load(counts.tolist())
    return spms


def test_bqsr_drain_replay(monkeypatch, report):
    context = BenchContext(reads=40, psize=2000).build()
    workload = context.workload
    simulations = Counter()
    fresh_drain = bqsr.simulate_drain

    def counting(spms, memory_config=None):
        simulations[drain_key(spms, memory_config)] += 1
        return fresh_drain(spms, memory_config)

    monkeypatch.setattr(bqsr, "_DRAIN_MEMO", {})
    monkeypatch.setattr(bqsr, "simulate_drain", counting)
    results, _stats = bqsr_stage_run(context)
    replay_simulations = dict(simulations)

    drained = [pid for pid, result in results.items() if result.run is not None]
    assert drained, "the bench workload has no non-empty read-group partition"
    assert max(replay_simulations.values()) == 1, replay_simulations

    partitions = dict(workload.group_partitions)
    for pid in drained:
        fresh = run_bqsr_partition(
            partitions[pid], workload.reference.lookup(pid), workload.read_length
        )
        for field in COUNT_FIELDS:
            assert np.array_equal(
                getattr(results[pid], field), getattr(fresh, field)
            ), (str(pid), field)
        oracle = fresh_drain(_loaded_spms(results[pid], workload.read_length))
        assert results[pid].drain_stats.cycles == oracle.cycles, str(pid)

    report("BQSR drain replay (DESIGN.md §3.2)", [
        f"partitions drained: {len(drained)}, drain simulations: "
        f"{sum(replay_simulations.values())} "
        f"({len(replay_simulations)} key(s))",
    ])
