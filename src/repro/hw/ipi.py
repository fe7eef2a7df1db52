"""Inter-processor interrupts and batched TLB shootdowns.

x86-64 cores can only invalidate their own TLB; removing or downgrading a
mapping that other cores may have cached requires IPIs (paper Section 4.1).
Aquila batches: it unmaps up to 512 pages, then sends a single posted IPI
per target core.  The send path deliberately takes a vmexit (2081 cycles
instead of 298) so the hypervisor can rate-limit interrupts and prevent a
denial-of-service; the receive path is vmexit-less (Shinjuku-style).

Cost accounting in the discrete-event model:

* the initiating thread pays the send cost per target core plus the wait
  for acknowledgements (bounded by the slowest receiver's handling time);
* each victim core accrues *interference* cycles (receive + invalidation
  work) in its :class:`InterferenceAccount`; threads absorb their core's
  pending interference at their next operation boundary, which is when a
  real core would take the interrupt.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.common import constants
from repro.obs import METRICS, TRACER
from repro.sim.clock import CycleClock
from repro.hw.tlb import TLB


#: Breakdown category of absorbed interrupt work (``absorb``'s default).
ABSORB_CATEGORY = "interference.ipi"


class InterferenceAccount:
    """Pending asynchronous work (IPI handling) charged to a core.

    Each post carries the sim time it was issued and is only delivered
    once the absorbing thread's clock has reached that time.  An
    interrupt cannot arrive before it was sent; time-gating the delivery
    also makes the op boundary that absorbs a given post a function of
    sim time alone, so the epoch-batched scheduler (which retires hit
    runs ahead of other threads' pops) attributes interference to
    exactly the same operation as the unbatched min-heap schedule.
    """

    def __init__(self) -> None:
        self._pending: Dict[int, List[List[float]]] = {}
        self.total_delivered = 0.0

    def post(self, core: int, cycles: float, when: float = 0.0) -> None:
        """Queue ``cycles`` of interrupt work on ``core``, sent at ``when``."""
        self._pending.setdefault(core, []).append([when, cycles])

    def absorb(self, core: int, clock: CycleClock, category: str = ABSORB_CATEGORY) -> float:
        """Charge and clear the matured work for ``core``; returns cycles.

        Only posts issued at or before ``clock.now`` are delivered; work
        posted "in the future" (relative to this core's clock) stays
        queued for a later boundary.
        """
        queue = self._pending.get(core)
        if not queue:
            return 0.0
        now = clock.now
        cycles = 0.0
        matured = False
        future = None
        for entry in queue:
            if entry[0] <= now:
                cycles += entry[1]
                matured = True
            elif future is None:
                future = [entry]
            else:
                future.append(entry)
        if not matured:
            return 0.0
        if future is None:
            del self._pending[core]
        else:
            queue[:] = future
        clock.charge(category, cycles)
        self.total_delivered += cycles
        return cycles

    def pending(self, core: int) -> float:
        """Cycles currently queued on ``core`` (matured or not)."""
        return sum(entry[1] for entry in self._pending.get(core, ()))


class ShootdownController:
    """Performs TLB shootdowns for one mmio engine.

    ``mode`` selects the cost profile: ``"linux"`` uses native IPIs and
    per-page INVLPG on receivers; ``"aquila"`` uses posted IPIs with a
    vmexit-protected send path and a single batched invalidation on each
    receiver (paper Section 4.1).
    """

    def __init__(
        self,
        tlbs: Sequence[TLB],
        interference: InterferenceAccount,
        mode: str = "linux",
    ) -> None:
        if mode not in ("linux", "aquila"):
            raise ValueError(f"unknown shootdown mode {mode!r}")
        self.tlbs = list(tlbs)
        self.interference = interference
        self.mode = mode
        self.shootdowns = 0
        self.ipis_sent = 0
        self.pages_invalidated = 0
        METRICS.bind_object(
            f"tlb.shootdown.{mode}",
            self,
            {
                "count": "shootdowns",
                "ipis_sent": "ipis_sent",
                "pages_invalidated": "pages_invalidated",
            },
        )

    def _target_cores(self, vpns: Iterable[int], initiator_core: int) -> List[int]:
        vpn_set = set(vpns)
        targets = []
        for core, tlb in enumerate(self.tlbs):
            if core == initiator_core:
                continue
            if tlb.contains_any(vpn_set):
                targets.append(core)
        return targets

    def shootdown(
        self,
        clock: CycleClock,
        initiator_core: int,
        vpns: Iterable[int],
        category_prefix: str = "tlb.shootdown",
    ) -> int:
        """Invalidate ``vpns`` on every core; returns number of IPIs sent.

        The initiator invalidates locally, sends one IPI per core whose TLB
        holds any of the pages, and waits for acknowledgements.
        """
        vpn_list = list(vpns)
        if not vpn_list:
            return 0
        self.shootdowns += 1
        self.pages_invalidated += len(vpn_list)
        with TRACER.span("tlb.shootdown", clock):
            return self._shootdown_batch(clock, initiator_core, vpn_list, category_prefix)

    def _shootdown_batch(
        self,
        clock: CycleClock,
        initiator_core: int,
        vpn_list: List[int],
        category_prefix: str,
    ) -> int:
        local_tlb = self.tlbs[initiator_core]
        local_tlb.invalidate_many(vpn_list)
        clock.charge(
            category_prefix + ".local",
            constants.TLB_INVALIDATE_LOCAL_CYCLES * min(len(vpn_list), 8)
            if self.mode == "aquila"
            else constants.TLB_INVALIDATE_LOCAL_CYCLES * len(vpn_list),
        )

        targets = self._target_cores(vpn_list, initiator_core)
        if not targets:
            return 0

        if self.mode == "aquila":
            send_cost = constants.IPI_SEND_VMEXIT_CYCLES
            receive_cost = constants.IPI_RECEIVE_CYCLES
        else:
            send_cost = constants.IPI_SEND_LINUX_CYCLES
            receive_cost = constants.IPI_RECEIVE_LINUX_CYCLES

        for core in targets:
            self.ipis_sent += 1
            clock.charge(category_prefix + ".send", send_cost)
            remote_tlb = self.tlbs[core]
            remote_tlb.invalidate_many(vpn_list)
            if self.mode == "aquila":
                # Batched invalidation: one flush-equivalent regardless of
                # batch size.
                handling = receive_cost + constants.TLB_FLUSH_LOCAL_CYCLES
            else:
                handling = receive_cost + constants.TLB_INVALIDATE_LOCAL_CYCLES * len(
                    vpn_list
                )
            self.interference.post(core, handling, when=clock.now)

        # Wait for the slowest acknowledgement; receivers respond in
        # roughly the receive-handling time.
        ack_wait = receive_cost
        clock.charge(category_prefix + ".ack_wait", ack_wait)
        return len(targets)
