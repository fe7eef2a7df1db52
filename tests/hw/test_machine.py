"""Machine aggregate: TLBs, interference delivery, SMT penalties."""

import pytest

from repro.common import constants
from repro.hw.fpu import FPUContext
from repro.hw.machine import Machine
from repro.sim.clock import CycleClock


class TestMachine:
    def test_one_tlb_per_hw_thread(self):
        machine = Machine()
        assert len(machine.tlbs) == 32

    def test_tlb_of_thread(self):
        machine = Machine()
        thread = machine.thread(5)
        assert machine.tlb_of(thread) is machine.tlbs[5]

    def test_absorb_interference(self):
        machine = Machine()
        thread = machine.thread(3)
        machine.interference.post(3, 700)
        assert machine.absorb_interference(thread) == 700
        assert thread.clock.now == 700

    def test_numa_node_of(self):
        machine = Machine()
        assert machine.numa_node_of(machine.thread(0)) == 0
        assert machine.numa_node_of(machine.thread(8)) == 1

    def test_threads_numbered_per_machine(self):
        """Each machine numbers its own threads from 0, in creation order."""
        first, second = Machine(), Machine()
        assert [first.thread(core).tid for core in (3, 0, 3)] == [0, 1, 2]
        thread = second.thread(7, "worker")
        assert (thread.tid, thread.core, thread.name) == (0, 7, "worker")
        assert first.thread(1).name == "thread-3"


class TestSMTPenalty:
    def test_no_penalty_up_to_16_threads(self):
        machine = Machine()
        threads = [machine.thread(i) for i in range(16)]
        assert machine.apply_smt_penalty(threads) == 0
        assert all(t.clock.cpi_factor == 1.0 for t in threads)

    def test_penalty_for_sibling_pairs(self):
        machine = Machine()
        threads = [machine.thread(i) for i in range(32)]
        penalized = machine.apply_smt_penalty(threads, factor=1.4)
        assert penalized == 32
        assert all(t.clock.cpi_factor == pytest.approx(1.4) for t in threads)

    def test_partial_overlap(self):
        machine = Machine()
        threads = [machine.thread(c) for c in (0, 16, 5)]   # 0 and 16 share core 0
        penalized = machine.apply_smt_penalty(threads)
        assert penalized == 2
        factors = {t.core: t.clock.cpi_factor for t in threads}
        assert factors[0] > 1.0 and factors[16] > 1.0
        assert factors[5] == 1.0


class TestFPUContext:
    def test_simd_copy_cost(self):
        fpu = FPUContext(use_simd=True)
        assert fpu.copy_cost_cycles(4096) == constants.MEMCPY_4K_AQUILA_DAX_CYCLES

    def test_nosimd_copy_cost(self):
        fpu = FPUContext(use_simd=False)
        assert fpu.copy_cost_cycles(4096) == constants.MEMCPY_4K_NOSIMD_CYCLES

    def test_simd_wins_at_page_size(self):
        assert FPUContext(True).copy_cost_cycles(4096) < FPUContext(False).copy_cost_cycles(4096)

    def test_fpu_save_amortizes_on_large_copies(self):
        """One state save per copy regardless of size."""
        fpu = FPUContext(True)
        two_pages = fpu.copy_cost_cycles(8192)
        one_page = fpu.copy_cost_cycles(4096)
        assert two_pages - one_page == constants.MEMCPY_4K_AVX2_CYCLES

    def test_charge_copy(self):
        fpu = FPUContext(True)
        clock = CycleClock()
        fpu.charge_copy(clock, 4096)
        assert clock.now == constants.MEMCPY_4K_AQUILA_DAX_CYCLES
        assert fpu.copies == 1
        assert fpu.state_saves == 1
