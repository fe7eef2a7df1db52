"""A cell is hermetic by construction: its stack owns every id it uses.

Nothing is rewound between cells or stacks.  Each machine numbers its
threads and each extent allocator its files, so a stack's digests are
the same whether it runs alone, interleaved op by op with another stack,
or after any other cell in the same process.
"""

import pytest

from repro.bench.setups import make_stack
from repro.bench.sweep import _execute_cell, enumerate_cells
from repro.common import units
from repro.mmio.vma import MADV_RANDOM
from repro.sim.conformance import diff_digests, mmio_state_digest
from repro.sim.executor import Executor, RunResult
from repro.workloads.microbench import access_workload

THREADS = 3


def _stack_and_work(engine_kind, seed):
    """A small evicting stack with one private file per thread, not yet run."""
    stack = make_stack(engine_kind, "pmem", 48)
    work = []
    for index in range(THREADS):
        thread = stack.machine.thread(index)
        file = stack.allocator.create(f"{engine_kind}-{index}", 40 * units.PAGE_SIZE)
        mapping = stack.engine.mmap(thread, file)
        mapping.madvise(thread, MADV_RANDOM)
        work.append((thread, access_workload(thread, mapping, 200, 0.3, False, seed)))
    return stack, work


def _digest(stack, work):
    return mmio_state_digest(stack, RunResult([thread for thread, _ in work]))


def _alone(engine_kind, seed):
    stack, work = _stack_and_work(engine_kind, seed)
    executor = Executor()
    for thread, steps in work:
        executor.add(thread, steps)
    executor.run()
    return _digest(stack, work)


@pytest.mark.parametrize("kinds", [("aquila", "linux"), ("kmmap", "kmmap")])
def test_two_stacks_interleaved_match_each_alone(kinds):
    (kind_a, seed_a), (kind_b, seed_b) = (kinds[0], 7), (kinds[1], 8)
    stack_a, work_a = _stack_and_work(kind_a, seed_a)
    stack_b, work_b = _stack_and_work(kind_b, seed_b)
    # One executor steps both stacks' threads in clock order, so the two
    # runs interleave op by op in one process.
    executor = Executor()
    for thread, steps in work_a + work_b:
        executor.add(thread, steps)
    executor.run()
    together = (_digest(stack_a, work_a), _digest(stack_b, work_b))
    alone = (_alone(kind_a, seed_a), _alone(kind_b, seed_b))
    for mixed, solo in zip(together, alone):
        problems = diff_digests(solo, mixed)
        assert not problems, "\n  ".join(problems[:5])


@pytest.mark.parametrize(
    "cell_a, cell_b",
    [
        ("serve/aquila/static/a6", "fig7/aquila"),  # file-id partitions
        ("fig10b/private/linux/t4", "fig5a/pmem/t4/aquila"),  # tid-seeded plans
        ("cluster/linux/s4", "fig9/pmem/A/kmmap"),  # one stack per shard
    ],
)
def test_cell_rerun_after_another_cell_is_identical(cell_a, cell_b):
    """A, then B, then A again in one process, with no reset in between."""
    cells = {c["cell_id"]: c for c in enumerate_cells(scale="bench")}
    runs = [_execute_cell(dict(cells[cell_id])) for cell_id in (cell_a, cell_b, cell_a)]
    first, other, again = runs
    assert other["state_digest"] != first["state_digest"]
    for key in ("state_digest", "telemetry_digest", "payload"):
        assert again[key] == first[key], key
