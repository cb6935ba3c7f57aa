"""Integration tests: the Figure 12 BQSR covariate-table accelerator."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import bqsr
from repro.accel.bqsr import (
    BqsrSpms,
    drain_key,
    drain_spms,
    merge_partition_results,
    run_bqsr_partition,
    simulate_drain,
)
from repro.gatk.bqsr import build_covariate_tables
from repro.hw.engine import Engine
from repro.hw.memory import MemoryConfig


def accumulate_hw(workload):
    by_group = {}
    for pid, part in workload.group_partitions:
        if part.num_rows == 0:
            continue
        result = run_bqsr_partition(
            part, workload.reference.lookup(pid), workload.read_length
        )
        by_group.setdefault(pid.read_group, []).append(result)
    return merge_partition_results(by_group, workload.read_length)


def test_covariate_tables_bit_identical(workload):
    """All four count buffers must match the software baseline exactly,
    for every read group."""
    hw = accumulate_hw(workload)
    sw = build_covariate_tables(workload.reads, workload.genome, workload.read_length)
    assert set(hw) == set(sw)
    for read_group, expected in sw.items():
        got = hw[read_group]
        assert np.array_equal(got.total_cycle, expected.total_cycle)
        assert np.array_equal(got.error_cycle, expected.error_cycle)
        assert np.array_equal(got.total_context, expected.total_context)
        assert np.array_equal(got.error_context, expected.error_context)


def test_errors_never_exceed_totals(workload):
    pid, part = next(
        (p, t) for p, t in workload.group_partitions if t.num_rows > 0
    )
    result = run_bqsr_partition(
        part, workload.reference.lookup(pid), workload.read_length
    )
    assert np.all(result.error_cycle <= result.total_cycle)
    assert np.all(result.error_context <= result.total_context)


def test_drain_phase_streams_all_spms(workload):
    pid, part = next(
        (p, t) for p, t in workload.group_partitions if t.num_rows > 0
    )
    result = run_bqsr_partition(
        part, workload.reference.lookup(pid), workload.read_length
    )
    _spm_words = (
        len(result.total_cycle) + len(result.total_context)
        + len(result.error_cycle) + len(result.error_context)
    )
    # Four drain readers run concurrently; the drain takes at least as
    # long as the largest SPM.
    assert result.drain_stats.cycles >= len(result.total_cycle)
    assert result.drain_stats.flits_by_module["drain0"] == len(result.total_cycle)


def test_rmw_hazards_occur_but_counts_stay_exact(workload):
    """Consecutive same-bin bases trip the interlock; correctness must be
    unaffected (the whole point of the hazard logic)."""
    total_stalls = 0
    for pid, part in workload.group_partitions:
        if part.num_rows == 0:
            continue
        result = run_bqsr_partition(
            part, workload.reference.lookup(pid), workload.read_length
        )
        total_stalls += result.hazard_stalls
    assert total_stalls > 0  # hazards genuinely exercised


def test_snp_sites_excluded_in_hw(workload):
    hw = accumulate_hw(workload)
    # Count M bases at non-SNP sites in software terms.
    expected_obs = 0
    for read in workload.reads:
        chromosome = workload.genome[read.chrom]
        for op, ref_pos, _ in read.cigar.walk(read.pos):
            if op == "M" and not chromosome.is_snp[ref_pos]:
                expected_obs += 1
    assert sum(t.observations() for t in hw.values()) == expected_obs


# -- drain replay --------------------------------------------------------------------


def _filled_spms(read_length, seed):
    """BQSR scratchpads holding seeded random counts."""
    rng = np.random.default_rng(seed)
    spms = BqsrSpms.allocate(read_length)
    for spm in spms.all():
        spm.load(rng.integers(0, 2**31, size=len(spm)).tolist())
    return spms


def _without_wall(stats):
    return stats.copy(wall_seconds=0.0)


@pytest.mark.parametrize("mode", ["event", "dense"])
@given(
    read_length=st.integers(20, 151),
    channels=st.integers(1, 8),
    access_bytes=st.sampled_from([4, 16, 32, 64, 128]),
    latency=st.integers(0, 200),
    seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
)
@settings(max_examples=8, deadline=None)
def test_drain_replay_equals_fresh_simulation(
    mode, read_length, channels, access_bytes, latency, seeds
):
    """The drain is data-independent: a replay recorded on one set of
    counts equals a fresh simulation of different counts in every
    RunStats field but ``wall_seconds``.  Both modes are recorded first,
    so a replay of the wrong mode's entry would show."""
    config = MemoryConfig(
        channels=channels, access_bytes=access_bytes, latency_cycles=latency
    )
    recorded_spms = _filled_spms(read_length, seeds[0])
    replayed_spms = _filled_spms(read_length, seeds[1])
    saved_mode = Engine.default_mode
    recorded = {}
    try:
        with patch.dict(bqsr._DRAIN_MEMO, clear=True):
            for recorded_mode in ("event", "dense"):
                Engine.default_mode = recorded_mode
                recorded[recorded_mode] = drain_spms(recorded_spms, config)
            Engine.default_mode = mode
            assert drain_key(replayed_spms, config) in bqsr._DRAIN_MEMO
            replay = drain_spms(replayed_spms, config)
        fresh = simulate_drain(replayed_spms, config)
    finally:
        Engine.default_mode = saved_mode
    assert fresh.mode == mode
    assert _without_wall(recorded[mode]) == _without_wall(fresh)
    assert _without_wall(replay) == _without_wall(fresh)


def test_drain_simulates_once_per_key(monkeypatch):
    calls = []

    def counting(spms, memory_config=None):
        calls.append(drain_key(spms, memory_config))
        return simulate_drain(spms, memory_config)

    monkeypatch.setattr(bqsr, "_DRAIN_MEMO", {})
    monkeypatch.setattr(bqsr, "simulate_drain", counting)
    slow = MemoryConfig(latency_cycles=80)
    for seed in range(3):
        drain_spms(_filled_spms(30, seed))
        drain_spms(_filled_spms(30, seed), slow)
    drain_spms(_filled_spms(40, 0))
    assert calls == [
        drain_key(BqsrSpms.allocate(30)),
        drain_key(BqsrSpms.allocate(30), slow),
        drain_key(BqsrSpms.allocate(40)),
    ]


def test_drain_replay_isolated_from_caller_mutation(monkeypatch):
    monkeypatch.setattr(bqsr, "_DRAIN_MEMO", {})
    spms = BqsrSpms.allocate(30)
    first = drain_spms(spms)
    expected = _without_wall(first)
    for stats in (first, drain_spms(spms)):
        stats.cycles += 1
        stats.flits_by_module["drain0"] = -1
        stats.busy_by_module.clear()
        stats.starve_by_module["extra"] = 7
    assert _without_wall(drain_spms(spms)) == expected
