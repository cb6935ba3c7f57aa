"""A fixed probe of the host's speed, for scaling host times to one speed.

The host shares its machine with other tenants, and its speed drifts with
them in phases that can outlast a whole run: one workload's median pass
took 1.9 s in one run and 3.4 s in another.  A median over the passes
of one run cannot remove a phase that covers the whole run.  So the
benchmark runs this probe between its timed regions, one probe before
and one after each pass and each set-up batch, and scales each region's
seconds by ``REFERENCE_PROBE_S`` over the mean of the two probes around
it: the seconds the region would have taken at the reference speed.

The probe walks a fixed random cycle through a list of about a million
int objects, some 40 MB, so nearly every step misses the caches.  Probes
that stay in cache (tight arithmetic loops, sorting a 20,000-row list)
did not follow the passes' phases; this one halved the spread of wall
time across ten runs.  It runs with the garbage collector off and uses
only its own objects, so neither a change to ``src/`` nor the size of the
program's heap changes its work.
"""

from __future__ import annotations

import gc
import random
import time
from typing import List

#: Slots in the probe's cycle: larger than the host's last-level cache.
SLOTS = 1 << 20
#: Steps per probe: about 0.12 s on the reference host.
STEPS = 250_000
#: A probe's median seconds on the reference host, a 2-vCPU Intel Xeon
#: virtual machine.  Scaled times are seconds at that speed.
REFERENCE_PROBE_S = 0.12


class HostSpeed:
    """The probe's cycle, and the probes of one run.  Building it takes
    about a second and 40 MB; build it after reading peak RSS."""

    def __init__(self):
        rng = random.Random(SLOTS)
        order = list(range(SLOTS))
        rng.shuffle(order)
        self._cycle = [0] * SLOTS
        for k in range(SLOTS):
            self._cycle[order[k - 1]] = order[k]
        #: Seconds of every probe so far, in order.
        self.probes: List[float] = []

    def mark(self) -> None:
        """Run one probe: it closes the timed region since the last one."""
        cycle = self._cycle
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            at = 0
            for _ in range(STEPS):
                at = cycle[at]
            seconds = time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        if at == 0:
            raise AssertionError("host-speed probe left its cycle")
        self.probes.append(seconds)

    def scale(self, seconds: float) -> float:
        """``seconds`` of the region between the last two probes, at the
        reference speed."""
        before, after = self.probes[-2:]
        return seconds * REFERENCE_PROBE_S * 2 / (before + after)
