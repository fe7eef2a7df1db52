"""Simulated hardware: topology, TLBs, page tables, VMX, IPIs, FPU."""

from repro.hw.fpu import FPUContext
from repro.hw.ipi import InterferenceAccount, ShootdownController
from repro.hw.machine import Machine
from repro.hw.page_table import PTE, PageTable
from repro.hw.tlb import TLB
from repro.hw.topology import DEFAULT_TOPOLOGY, Topology
from repro.hw.vmx import ExecutionDomain, VMXCostModel

__all__ = [
    "FPUContext",
    "InterferenceAccount",
    "ShootdownController",
    "Machine",
    "PTE",
    "PageTable",
    "TLB",
    "DEFAULT_TOPOLOGY",
    "Topology",
    "ExecutionDomain",
    "VMXCostModel",
]
