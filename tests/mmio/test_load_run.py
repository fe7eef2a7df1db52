"""``MmioEngine.load_run`` against its per-access definition.

``load_run`` must be indistinguishable from the loop it replaces —
``clock.charge(*pre_charge)`` then ``Mapping.load``, access after access,
stopping after the first load that reads ``stop`` — in everything the
simulation can observe: values, the clock, the breakdown (including the
order categories entered it), open-span charges, TLB recency order and
counters, PTE accessed bits, cache contents and every engine counter but
the mode counters.  Each case mixes hits with faults in mid-run, posts
interference at times inside the run in its hard variant, which also runs
at CPI 1.4 with a span open and a TLB small enough to overflow.
"""

import random
import struct

import pytest

from repro.bench.setups import make_aquila_stack, make_kmmap_stack, make_linux_stack
from repro.common import units
from repro.common.errors import SegmentationFault
from repro.graph.mmap_heap import MmapHeap
from repro.mmio.files import BackingFile
from repro.mmio.vma import MADV_RANDOM
from repro.obs import TRACER
from repro.sim.conformance import diff_digests, mmio_state_digest
from repro.sim.executor import RunResult, SimThread

MAKERS = {
    "aquila": make_aquila_stack,
    "kmmap": make_kmmap_stack,
    "linux": make_linux_stack,
}

FILE_PAGES = 64
CACHE_PAGES = 48
ACCESSES = 240
PRE_CHARGE = ("app.edge", 55)
ARRAY_LENGTH = 40 * units.PAGE_SIZE // 8
IPI_CYCLES = 700
_U64 = struct.Struct("<Q")

#: (cpi_factor, tlb_capacity, span open, interference) per variant.  Only
#: the runs without interference show the breakdown's insertion order as
#: the flush leaves it: an absorb first gives pending categories a slot.
VARIANTS = {
    "plain": (1.0, None, False, False),
    "small-tlb": (1.0, 8, False, False),
    "smt-span-interference": (1.4, 8, True, True),
}


def _plan(seed):
    """Distinct 8-byte-aligned offsets across the file, as (pages, in-page).

    Returns the plan and the store order that sets word ``a`` to ``a``:
    the reverse of the plan, so the run starts on pages the stores left
    resident and in the TLB, and faults once it reaches evicted ones.
    """
    rng = random.Random(seed)
    addresses = rng.sample(range(0, FILE_PAGES * units.PAGE_SIZE, 8), ACCESSES)
    plan = (
        [a >> units.PAGE_SHIFT for a in addresses],
        [a & (units.PAGE_SIZE - 1) for a in addresses],
    )
    return plan, addresses


def _setup(engine_kind, variant, addresses, posts=()):
    """A stack whose cache holds part of the file, and a fresh thread.

    A set-up thread stores word ``a`` = ``a`` for each of ``addresses``
    in reverse order; the returned thread then starts with an empty
    breakdown on the same core, so every category its run charges is
    new and must enter the breakdown in per-access order.  ``posts``
    are interference send times, relative to the thread's start.
    """
    SimThread.reset_ids()
    BackingFile.reset_ids()
    stack = MAKERS[engine_kind]("pmem", CACHE_PAGES)
    cpi, tlb_capacity, _, _ = VARIANTS[variant]
    if tlb_capacity is not None:
        for tlb in stack.machine.tlbs:
            tlb.capacity = tlb_capacity
    setup = SimThread(core=0)
    file = stack.allocator.create("words", FILE_PAGES * units.PAGE_SIZE)
    mapping = stack.engine.mmap(setup, file)
    mapping.madvise(setup, MADV_RANDOM)
    for address in reversed(addresses):
        mapping.store(setup, address, _U64.pack(address))
    thread = SimThread(core=0)
    thread.clock.now = setup.clock.now
    thread.clock.cpi_factor = cpi
    for when in posts:
        stack.machine.interference.post(thread.core, IPI_CYCLES, thread.clock.now + when)
    return stack, thread, mapping


def _posts_inside_pre_charges(engine_kind, variant, plan, addresses, index):
    """Interference send times that fall inside accesses' pre-charges.

    A dry run without interference finds when each access starts; every
    third access gets a post 20 cycles in, so the per-access order (the
    pre-charge, *then* the absorb) decides whether that access absorbs
    it.  Later posts drift as earlier ones lengthen the run, which only
    varies the phase further.
    """
    _, thread, mapping = _setup(engine_kind, variant, addresses)
    base = thread.clock.now
    starts = []
    pages, offsets = plan
    for i in range(index, len(pages)):
        starts.append(thread.clock.now - base)
        thread.clock.charge(*PRE_CHARGE)
        try:
            mapping.load(thread, pages[i] * units.PAGE_SIZE + offsets[i], 8)
        except SegmentationFault:
            break
    return [start + 20 for start in starts[::3]] + [thread.clock.now - base + 10**6]


def _oracle(thread, mapping, plan, index, nbytes, pre_charge, stop):
    pages, offsets = plan
    values = []
    for i in range(index, len(pages)):
        thread.clock.charge(*pre_charge)
        value = mapping.load(thread, pages[i] * units.PAGE_SIZE + offsets[i], nbytes)
        values.append(value)
        if value == stop:
            break
    return values


def _load_run(thread, mapping, plan, index, nbytes, pre_charge, stop):
    return mapping.load_run(thread, plan, index, nbytes, pre_charge, stop)


def _observe(run, engine_kind, variant, plan, addresses, index, stop):
    """Run one access sequence; returns everything it can have changed."""
    posts = ()
    if VARIANTS[variant][3]:
        posts = _posts_inside_pre_charges(engine_kind, variant, plan, addresses, index)
    stack, thread, mapping = _setup(engine_kind, variant, addresses, posts)
    span_open = VARIANTS[variant][2]
    outcome = None
    with TRACER.isolated(enable=span_open):
        try:
            if span_open:
                with TRACER.span("cell", thread.clock):
                    outcome = run(thread, mapping, plan, index, 8, PRE_CHARGE, stop)
            else:
                outcome = run(thread, mapping, plan, index, 8, PRE_CHARGE, stop)
        except SegmentationFault as exc:
            outcome = ("raised", type(exc).__name__, str(exc))
        spans = [
            (s.name, s.depth, s.begin, s.end, list(s.charges.items()))
            for s in TRACER.finished_spans()
        ]
        assert TRACER.dropped == 0
    return {
        "outcome": outcome,
        "digest": mmio_state_digest(stack, RunResult([thread])),
        "breakdown": list(thread.clock.breakdown.as_dict().items()),
        "spans": spans,
        "tlb_order": [list(tlb._entries) for tlb in stack.machine.tlbs],
        "pending": stack.machine.interference.pending(thread.core),
        "engine": stack.engine,
    }


def _assert_same(reference, candidate):
    problems = diff_digests(reference["digest"], candidate["digest"])
    assert not problems, "state diverged:\n  " + "\n  ".join(problems[:5])
    for key in ("outcome", "breakdown", "spans", "tlb_order", "pending"):
        assert candidate[key] == reference[key], f"{key} diverged"


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("engine_kind", sorted(MAKERS))
@pytest.mark.parametrize("stop_at", ["first", "last", "none"])
def test_load_run_equals_charge_then_load(engine_kind, variant, stop_at):
    plan, addresses = _plan(seed=3)
    index = 5
    stop = {
        "first": _U64.pack(addresses[index]),
        "last": _U64.pack(addresses[-1]),
        "none": _U64.pack(1 << 63),
    }[stop_at]
    reference = _observe(_oracle, engine_kind, variant, plan, addresses, index, stop)
    candidate = _observe(_load_run, engine_kind, variant, plan, addresses, index, stop)
    _assert_same(reference, candidate)
    values = candidate["outcome"]
    expected = {"first": 1, "last": ACCESSES - index, "none": ACCESSES - index}[stop_at]
    assert len(values) == expected
    assert values == [_U64.pack(a) for a in addresses[index : index + expected]]
    engine = candidate["engine"]
    if stop_at != "first":
        # The run mixed batched hits with faults on the reference path,
        # and absorbed every post but the one set beyond its end.
        assert engine.batched_hits > engine.hit_runs > 1
        assert candidate["pending"] == (IPI_CYCLES if VARIANTS[variant][3] else 0)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("engine_kind", sorted(MAKERS))
def test_out_of_range_access_raises_after_the_same_charges(engine_kind, variant):
    plan, addresses = _plan(seed=5)
    pages, offsets = plan
    bad = 150
    plan = (pages[:bad] + [FILE_PAGES] + pages[bad:], offsets[:bad] + [0] + offsets[bad:])
    stop = _U64.pack(1 << 63)
    reference = _observe(_oracle, engine_kind, variant, plan, addresses, 0, stop)
    candidate = _observe(_load_run, engine_kind, variant, plan, addresses, 0, stop)
    assert candidate["outcome"][:2] == ("raised", "SegmentationFault")
    _assert_same(reference, candidate)


def _heap_oracle(thread, array, plan_indices, index, pre_charge, stop):
    values = []
    for i in plan_indices[index:]:
        thread.clock.charge(*pre_charge)
        value = array.read(thread, i)
        values.append(value)
        if value == stop:
            break
    return values


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("engine_kind", sorted(MAKERS))
@pytest.mark.parametrize("bad_index", [-1, ARRAY_LENGTH])
def test_heap_array_out_of_range_index(engine_kind, variant, bad_index):
    """``HeapArray.load_run`` raises ``IndexError`` where ``read`` would."""
    rng = random.Random(9)
    indices = [rng.randrange(ARRAY_LENGTH) for _ in range(120)]
    indices[90] = bad_index
    observed = []
    for use_run in (False, True):
        stack, thread, mapping = _setup(engine_kind, variant, [])
        array = MmapHeap(mapping).alloc_array(ARRAY_LENGTH)
        with pytest.raises(IndexError):
            if use_run:
                plan = array.load_plan(indices)
                pos = 3
                while pos < len(indices):
                    pos += len(array.load_run(thread, plan, pos, PRE_CHARGE, 7))
            else:
                _heap_oracle(thread, array, indices, 3, PRE_CHARGE, 7)
        observed.append(
            (
                mmio_state_digest(stack, RunResult([thread])),
                list(thread.clock.breakdown.as_dict().items()),
            )
        )
    (reference, ref_breakdown), (candidate, breakdown) = observed
    assert not diff_digests(reference, candidate)
    assert breakdown == ref_breakdown
