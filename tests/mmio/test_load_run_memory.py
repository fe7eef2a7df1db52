"""``MmioEngine.load_run`` keeps no transient that grows with its plan.

A Ligra BFS calls ``load_run`` once per claimed neighbour, each time with
the rest of the vertex's plan, so whatever one call allocates per access
is paid again and again.  Beyond the values it returns, a run of pure
hits must allocate no more for a long plan than for a short one.
"""

import tracemalloc

from repro.bench.setups import make_aquila_stack
from repro.common import units
from repro.sim.executor import SimThread

FILE_PAGES = 4
PRE_CHARGE = ("app.edge", 55)
#: Never stored, so every run loads its whole plan.
STOP = b"\xff" * 8
SHORT, LONG = 2_000, 20_000


def _transient_bytes(length):
    """Peak traced bytes of one all-hit ``load_run`` beyond what it returns."""
    stack = make_aquila_stack("pmem", cache_pages=16)
    file = stack.allocator.create("words", FILE_PAGES * units.PAGE_SIZE)
    thread = SimThread(core=0, tid=0)
    mapping = stack.engine.mmap(thread, file)
    for page in range(FILE_PAGES):
        mapping.load(thread, page * units.PAGE_SIZE, 8)
    plan = (
        [i % FILE_PAGES for i in range(length)],
        [(i * 8) % units.PAGE_SIZE for i in range(length)],
    )
    hits_before = stack.engine.batched_hits
    tracemalloc.start()
    try:
        values = mapping.load_run(thread, plan, 0, 8, PRE_CHARGE, STOP)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(values) == length
    assert stack.engine.batched_hits - hits_before == length   # every access hit
    return peak - current


def test_all_hit_run_transient_does_not_grow_with_plan_length():
    short = _transient_bytes(SHORT)
    long = _transient_bytes(LONG)
    # One float and one list slot per hit would be ~32 bytes per access,
    # over 500 KiB across the extra 18,000 accesses.
    assert long - short < 16 * units.KIB, (short, long)
