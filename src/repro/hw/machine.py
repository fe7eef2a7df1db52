"""The simulated machine: topology + per-core TLBs + interference.

One :class:`Machine` instance is shared by every component of an
experiment.  It owns the hardware state that is global to the box (TLBs,
pending interrupt work) and numbers the software threads pinned to it,
while protection-domain costs live in per-engine
:class:`~repro.hw.vmx.VMXCostModel` objects, because Linux and Aquila
applications coexist on the same hardware but run in different domains.
"""

from __future__ import annotations

import itertools
from typing import List

from repro.hw.ipi import InterferenceAccount, ShootdownController
from repro.hw.tlb import TLB
from repro.hw.topology import Topology
from repro.obs import METRICS
from repro.sim.executor import SimThread


class Machine:
    """Hardware-global simulation state."""

    def __init__(self, topology: Topology = None, tlb_capacity: int = 1536) -> None:
        self.topology = topology if topology is not None else Topology()
        self.tlbs: List[TLB] = [
            TLB(tlb_capacity) for _ in range(self.topology.num_hw_threads)
        ]
        self.interference = InterferenceAccount()
        self._next_tid = itertools.count()
        METRICS.bind_object(
            "tlb",
            self,
            {
                "hits": lambda m: sum(t.hits for t in m.tlbs),
                "misses": lambda m: sum(t.misses for t in m.tlbs),
                "invalidations": lambda m: sum(t.invalidations for t in m.tlbs),
                "flushes": lambda m: sum(t.flushes for t in m.tlbs),
            },
        )
        METRICS.bind_object(
            "interference",
            self.interference,
            {"ipi_cycles_delivered": "total_delivered"},
        )

    def thread(self, core: int, name: str = "") -> SimThread:
        """A new software thread pinned to hardware thread ``core``.

        Thread ids count from 0 in creation order on each machine, so a
        stack's op streams (seeded by tid) never depend on what else the
        process built.
        """
        return SimThread(core, name, tid=next(self._next_tid))

    def tlb_of(self, thread: SimThread) -> TLB:
        """The TLB of the hardware thread ``thread`` is pinned to."""
        return self.tlbs[thread.core]

    def absorb_interference(self, thread: SimThread) -> float:
        """Deliver pending IPI work queued on this thread's core.

        Engines call this at each operation boundary — the point where a
        real core would take its pending interrupts.
        """
        return self.interference.absorb(thread.core, thread.clock)

    def make_shootdown_controller(self, mode: str) -> ShootdownController:
        """A shootdown controller over this machine's TLBs."""
        return ShootdownController(self.tlbs, self.interference, mode=mode)

    def numa_node_of(self, thread: SimThread) -> int:
        """NUMA node of the thread's hardware thread."""
        return self.topology.numa_node_of(thread.core)

    def apply_smt_penalty(self, threads, factor: float = 1.4) -> int:
        """Set the SMT CPI factor for threads sharing a physical core.

        The testbed has 16 physical cores and 32 hyperthreads; runs with
        more than 16 software threads co-schedule hyperthread siblings,
        which share execution resources.  Returns how many threads were
        penalized.
        """
        by_core = {}
        for thread in threads:
            by_core.setdefault(self.topology.core_of(thread.core), []).append(thread)
        penalized = 0
        for group in by_core.values():
            if len(group) > 1:
                for thread in group:
                    thread.clock.cpi_factor = factor
                    penalized += 1
        return penalized
