"""IPIs, interference accounts, and batched TLB shootdowns."""

from repro.common import constants
from repro.hw.ipi import InterferenceAccount, ShootdownController
from repro.hw.tlb import TLB
from repro.sim.clock import CycleClock


def _tlbs(count=4):
    return [TLB() for _ in range(count)]


class TestInterferenceAccount:
    def test_post_and_absorb(self):
        account = InterferenceAccount()
        account.post(2, 500)
        account.post(2, 300)
        clock = CycleClock()
        assert account.absorb(2, clock) == 800
        assert clock.now == 800
        assert account.absorb(2, clock) == 0   # drained

    def test_cores_independent(self):
        account = InterferenceAccount()
        account.post(0, 100)
        assert account.pending(1) == 0
        assert account.pending(0) == 100


class TestShootdownController:
    def test_no_targets_no_ipis(self):
        tlbs = _tlbs()
        controller = ShootdownController(tlbs, InterferenceAccount(), "aquila")
        clock = CycleClock()
        sent = controller.shootdown(clock, 0, [1, 2, 3])
        assert sent == 0   # no remote TLB holds those pages
        assert controller.ipis_sent == 0

    def test_targets_only_holding_cores(self):
        tlbs = _tlbs()
        warm = CycleClock()
        tlbs[1].access(7, warm)
        tlbs[3].access(7, warm)
        controller = ShootdownController(tlbs, InterferenceAccount(), "aquila")
        sent = controller.shootdown(CycleClock(), 0, [7])
        assert sent == 2
        assert 7 not in tlbs[1].resident
        assert 7 not in tlbs[3].resident

    def test_local_invalidation_always_happens(self):
        tlbs = _tlbs()
        warm = CycleClock()
        tlbs[0].access(9, warm)
        controller = ShootdownController(tlbs, InterferenceAccount(), "linux")
        controller.shootdown(CycleClock(), 0, [9])
        assert 9 not in tlbs[0].resident

    def test_interference_posted_to_victims(self):
        tlbs = _tlbs()
        warm = CycleClock()
        tlbs[2].access(5, warm)
        account = InterferenceAccount()
        controller = ShootdownController(tlbs, account, "aquila")
        controller.shootdown(CycleClock(), 0, [5])
        assert account.pending(2) > 0
        assert account.pending(1) == 0

    def test_aquila_send_costs_vmexit_ipi(self):
        """The DoS-safe send path pays 2081 cycles per IPI (Section 4.1)."""
        tlbs = _tlbs()
        warm = CycleClock()
        tlbs[1].access(3, warm)
        controller = ShootdownController(tlbs, InterferenceAccount(), "aquila")
        clock = CycleClock()
        controller.shootdown(clock, 0, [3])
        sends = clock.breakdown.prefix_total("tlb.shootdown.send")
        assert sends == constants.IPI_SEND_VMEXIT_CYCLES

    def test_batching_amortizes_sends(self):
        """One IPI per target core regardless of batch size."""
        tlbs = _tlbs()
        warm = CycleClock()
        for vpn in range(64):
            tlbs[1].access(vpn, warm)
        controller = ShootdownController(tlbs, InterferenceAccount(), "aquila")
        controller.shootdown(CycleClock(), 0, list(range(64)))
        assert controller.ipis_sent == 1
        assert controller.pages_invalidated == 64

    def test_linux_receive_cost_scales_with_pages(self):
        """Linux receivers invalidate page by page; Aquila flushes once."""
        def receive_cost(mode):
            tlbs = _tlbs(2)
            warm = CycleClock()
            for vpn in range(32):
                tlbs[1].access(vpn, warm)
            account = InterferenceAccount()
            controller = ShootdownController(tlbs, account, mode)
            controller.shootdown(CycleClock(), 0, list(range(32)))
            return account.pending(1)

        assert receive_cost("linux") > receive_cost("aquila")

    def test_empty_batch_noop(self):
        controller = ShootdownController(_tlbs(), InterferenceAccount(), "linux")
        assert controller.shootdown(CycleClock(), 0, []) == 0

    def test_unknown_mode_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            ShootdownController(_tlbs(), InterferenceAccount(), "windows")
