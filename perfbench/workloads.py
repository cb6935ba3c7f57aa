"""Seeded inputs for the benchmark workloads and the outputs they must give.

Each workload is a fixed shape plus a seed.  The seed changes the genome,
the reads and the arrival order, never the amount of work: read counts,
partition counts and the serve stage mix are fixed by the shape, so two
seeds differ in arrangement, not in load.  README.md says why each shape
exists.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.eval.workloads import Workload
from repro.gatk.bqsr import CovariateTables, build_covariate_tables
from repro.gatk.markdup import mark_duplicates
from repro.gatk.metadata import compute_read_metadata
from repro.genomics.fasta import read_fasta, write_fasta
from repro.genomics.read import AlignedRead
from repro.genomics.reference import ReferenceGenome
from repro.genomics.sam import read_sam, write_sam
from repro.genomics.simulator import ReadSimulator, SimulatorConfig
from repro.serve.job import JobSpec
from repro.serve.trace import (
    SERVE_STAGES,
    ArrivalTrace,
    JobArrival,
    trace_jobs,
)
from repro.tables.genomic_tables import reads_to_table
from repro.tables.partition import (
    PartitionId,
    partition_reads,
    partition_reads_by_group,
    partition_reference,
)

SNP_RATE = 0.002
READ_GROUPS = 4


@dataclass(frozen=True)
class PreprocessShape:
    """SAM + FASTA in, SAM + covariate tables out, on one topology."""

    chromosomes: Tuple[int, ...]
    genome_scale: float
    reads: int
    read_length: int
    psize: int
    devices: int
    storage_filter: bool
    pipelines: int = 4
    workers: int = 1


@dataclass(frozen=True)
class ServeShape:
    """An open-loop multi-tenant trace against ``repro.serve.JobService``."""

    chromosomes: Tuple[int, ...]
    genome_scale: float
    reads: int
    read_length: int
    psize: int
    tenants: int
    rounds: int
    round_cycles: int
    spacing_cycles: int
    #: Latency limit for ``slo_frac``, in modelled cycles.
    slo_cycles: int
    pipelines: int = 2
    devices: int = 2
    workers: int = 1


# At genome scale 5e-6 every chromosome from 3 on is clamped to 1,000 bp,
# so with psize 1000 each contig is one equal-sized position partition.
SHAPES = {
    "preprocess-deep": PreprocessShape(
        chromosomes=(20,), genome_scale=1.5e-4, reads=160, read_length=100,
        psize=1 << 20, devices=1, storage_filter=False,
    ),
    "preprocess-wide": PreprocessShape(
        chromosomes=(18, 19, 20, 21), genome_scale=5e-6, reads=200,
        read_length=60, psize=1000, devices=2, storage_filter=True,
    ),
    # 6 tenants x 17 rounds = 102 jobs, so p90 has 10 jobs beyond it.  A
    # round of six jobs keeps both cards about 70% busy.  slo_cycles is
    # 4x the unloaded p50 (the same jobs spaced 1M cycles apart, seed 1:
    # 6,287 cycles), rounded.
    "serve-mix": ServeShape(
        chromosomes=(17, 18, 19, 20, 21), genome_scale=5e-6, reads=100,
        read_length=30, psize=1000, tenants=6, rounds=17,
        round_cycles=24_000, spacing_cycles=250, slo_cycles=25_000,
    ),
}

#: The same workloads at a size that runs in about a second: the warm-up
#: before timing, and the smoke check.
TINY = {
    "preprocess-deep": PreprocessShape(
        chromosomes=(20,), genome_scale=1.5e-4, reads=12, read_length=40,
        psize=1 << 20, devices=1, storage_filter=False,
    ),
    "preprocess-wide": PreprocessShape(
        chromosomes=(21, 22), genome_scale=5e-6, reads=16, read_length=30,
        psize=1000, devices=2, storage_filter=True,
    ),
    "serve-mix": ServeShape(
        chromosomes=(21, 22), genome_scale=5e-6, reads=16, read_length=30,
        psize=1000, tenants=2, rounds=3, round_cycles=24_000,
        spacing_cycles=250, slo_cycles=25_000,
    ),
}


# -- preprocess -----------------------------------------------------------------


@dataclass
class PreprocessInputs:
    seed: int
    fasta: str
    sam: str


def overlap(read_length: int) -> int:
    """REF partition overlap, as ``repro.eval.make_workload`` sizes it."""
    return read_length + 3 * SimulatorConfig().max_indel_length + 8


def simulate(shape, seed: int) -> Tuple[ReferenceGenome, List[AlignedRead]]:
    """A seeded genome and reads, the same number of reads drawn on each
    contig (left to itself the simulator picks contigs at random, which
    would change partition sizes from seed to seed)."""
    genome = ReferenceGenome.grch38_like(
        scale=shape.genome_scale, snp_rate=SNP_RATE, seed=seed,
        chromosomes=shape.chromosomes,
    )
    simulator = ReadSimulator(
        genome,
        SimulatorConfig(
            read_length=shape.read_length, read_groups=READ_GROUPS,
            seed=seed + 1,
        ),
    )
    per_contig = shape.reads // len(shape.chromosomes)
    reads = [
        read for chrom in shape.chromosomes
        for read in simulator.simulate(per_contig, chrom=chrom)
    ]
    reads.sort(key=lambda read: (read.chrom, read.pos))
    return genome, reads


def make_preprocess_inputs(shape: PreprocessShape, seed: int) -> PreprocessInputs:
    """Generate a genome and reads, serialised as FASTA and SAM text."""
    genome, reads = simulate(shape, seed)
    fasta = io.StringIO()
    write_fasta(fasta, genome)
    sam = io.StringIO()
    write_sam(sam, reads, genome)
    return PreprocessInputs(seed, fasta.getvalue(), sam.getvalue())


def parse_genome(inputs: PreprocessInputs) -> ReferenceGenome:
    """FASTA carries no known-SNP sites; both the pass and the oracle
    draw the same seeded IS_SNP bitmap."""
    return read_fasta(io.StringIO(inputs.fasta), snp_rate=SNP_RATE,
                      seed=inputs.seed)


@dataclass
class PreprocessExpected:
    """Per output read: name, duplicate flag, (NM, MD, UQ), read group;
    plus one covariate table per read group."""

    reads: List[Tuple[str, bool, Tuple[int, str, int], int]]
    covariates: Dict[int, CovariateTables]


def expected_preprocess(
    shape: PreprocessShape, inputs: PreprocessInputs
) -> PreprocessExpected:
    """The software stages on the same inputs: mark duplicates with
    software quality sums, NM/MD/UQ per read, BQSR covariate tables."""
    genome = parse_genome(inputs)
    marked = mark_duplicates(read_sam(io.StringIO(inputs.sam)))
    reads = []
    for read in marked.sorted_reads:
        meta = compute_read_metadata(read, genome)
        reads.append((read.name, read.is_duplicate,
                      (meta.nm, meta.md, meta.uq), read.read_group))
    covariates = build_covariate_tables(
        marked.sorted_reads, genome, shape.read_length
    )
    return PreprocessExpected(reads, covariates)


def tables_equal(a, b) -> bool:
    """Whether two covariate-count results hold the same four arrays."""
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("total_cycle", "error_cycle",
                     "total_context", "error_context")
    )


def check_preprocess(
    expected: PreprocessExpected, out_sam: str,
    covariates: Dict[int, CovariateTables],
) -> int:
    """Number of reads whose output is wrong or missing.  A read counts
    as wrong when its read group's covariate table is wrong."""
    bad_groups = {
        group for group in set(expected.covariates) | set(covariates)
        if group not in expected.covariates or group not in covariates
        or not tables_equal(expected.covariates[group], covariates[group])
    }
    got = read_sam(io.StringIO(out_sam))
    failed = max(0, len(got) - len(expected.reads))
    for index, (name, duplicate, tags, group) in enumerate(expected.reads):
        if index >= len(got):
            failed += 1
            continue
        read = got[index]
        observed = (read.tags.get("NM"), read.tags.get("MD"),
                    read.tags.get("UQ"))
        if (read.name != name or read.is_duplicate != duplicate
                or observed != tags or group in bad_groups):
            failed += 1
    return failed


# -- serve ----------------------------------------------------------------------


@dataclass
class ServeInputs:
    seed: int
    workload: Workload
    jobs: List[Tuple[int, JobSpec]]


def balanced_arrivals(shape: ServeShape, seed: int) -> List[JobArrival]:
    """An open loop in rounds: every ``round_cycles`` each tenant submits
    one one-partition job, ``spacing_cycles`` apart, in a seeded order.
    The stage mix is a fixed multiset and each stage asks for every
    partition equally often; the seed only shuffles them, so the offered
    load is the same for every seed."""
    rng = random.Random(seed)

    def shuffled(values):
        values = list(values)
        rng.shuffle(values)
        return values

    n = shape.rounds * shape.tenants
    stages = shuffled(SERVE_STAGES[i % len(SERVE_STAGES)] for i in range(n))
    starts = {
        stage: shuffled(range(stages.count(stage))) for stage in SERVE_STAGES
    }
    arrivals = []
    for round_index in range(shape.rounds):
        tenants = shuffled(range(shape.tenants))
        for slot, tenant in enumerate(tenants):
            stage = stages[len(arrivals)]
            arrivals.append(JobArrival(
                at_cycles=(round_index * shape.round_cycles
                           + slot * shape.spacing_cycles),
                tenant=f"t{tenant:03d}", stage=stage,
                partition_lo=starts[stage].pop(), n_partitions=1,
            ))
    return arrivals


def make_serve_inputs(shape: ServeShape, seed: int) -> ServeInputs:
    """Generate the tables the service reads and the job trace."""
    genome, reads = simulate(shape, seed)
    table = reads_to_table(reads)
    margin = overlap(shape.read_length)
    workload = Workload(
        genome=genome, reads=reads, table=table,
        partitions=partition_reads(table, shape.psize),
        group_partitions=partition_reads_by_group(table, shape.psize),
        reference=partition_reference(genome, shape.psize, margin),
        read_length=shape.read_length, psize=shape.psize, overlap=margin,
    )
    trace = ArrivalTrace(seed=seed, arrivals=balanced_arrivals(shape, seed))
    jobs = trace_jobs(trace, workload, n_pipelines=shape.pipelines)
    return ServeInputs(seed, workload, jobs)


class ServeOracle:
    """Expected per-partition results of each served stage, computed in
    software on first use and kept for the run."""

    def __init__(self, inputs: ServeInputs):
        self.workload = inputs.workload
        self._cache: Dict[Tuple[str, PartitionId], object] = {}

    def _reads(self, part):
        return [self.workload.reads[row] for row in part.column("ROWID")]

    def expected(self, stage: str, pid: PartitionId, part):
        key = (stage, pid)
        if key not in self._cache:
            reads = self._reads(part)
            genome = self.workload.genome
            if stage == "markdup":
                value = [read.quality_sum() for read in reads]
            elif stage == "metadata":
                value = [compute_read_metadata(read, genome) for read in reads]
            else:
                value = build_covariate_tables(
                    reads, genome, self.workload.read_length
                ).get(pid.read_group)
            self._cache[key] = value
        return self._cache[key]

    def matches(self, stage: str, pid: PartitionId, part, result) -> bool:
        expected = self.expected(stage, pid, part)
        if stage == "markdup":
            return list(result.quality_sums) == expected
        if stage == "metadata":
            return (
                list(result.nm) == [m.nm for m in expected]
                and list(result.md) == [m.md for m in expected]
                and list(result.uq) == [m.uq for m in expected]
            )
        if expected is None:
            expected = CovariateTables(self.workload.read_length)
        return tables_equal(result, expected)
