"""File-resident B+tree (Kreon's per-level index)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.setups import make_aquila_stack, make_kreon
from repro.common import units
from repro.kv.btree import (
    NODE_SIZE,
    FileBTree,
    PageAllocator,
    _decode_node,
    _encode_node,
    node_capacity,
    pages_needed,
)
from repro.sim.executor import SimThread


def _mapping(pages=512):
    stack = make_aquila_stack("pmem", cache_pages=1024, capacity_bytes=128 * units.MIB)
    file = stack.allocator.create("vol", pages * units.PAGE_SIZE)
    thread = SimThread(core=0)
    return stack, stack.engine.mmap(thread, file), thread


def _entries(n):
    return [(b"key-%08d" % i, i * 7) for i in range(n)]


class TestPageAllocator:
    def test_allocates_from_top_down(self):
        allocator = PageAllocator(100)
        assert allocator.allocate() == 99
        assert allocator.allocate() == 98
        assert allocator.low_water_page == 98


class TestBuildAndLookup:
    def test_empty(self):
        _, mapping, thread = _mapping()
        tree = FileBTree.build(thread, mapping, PageAllocator(512), [])
        assert tree.lookup(thread, b"any") is None
        assert tree.entry_count == 0

    def test_lookup_every_key(self):
        _, mapping, thread = _mapping()
        entries = _entries(1000)
        tree = FileBTree.build(thread, mapping, PageAllocator(512), entries)
        for key, pointer in entries:
            assert tree.lookup(thread, key) == pointer

    def test_lookup_missing(self):
        _, mapping, thread = _mapping()
        tree = FileBTree.build(thread, mapping, PageAllocator(512), _entries(100))
        assert tree.lookup(thread, b"key-99999999") is None
        assert tree.lookup(thread, b"aaa") is None
        assert tree.lookup(thread, b"key-00000050x") is None

    def test_multi_level_tree(self):
        _, mapping, thread = _mapping()
        entries = _entries(2000)
        tree = FileBTree.build(thread, mapping, PageAllocator(512), entries, fanout=16)
        assert tree.height >= 3
        assert tree.lookup(thread, b"key-00001234") == 1234 * 7

    def test_node_reads_counted(self):
        """Every lookup walks height nodes through the mapping (mmio!)."""
        _, mapping, thread = _mapping()
        tree = FileBTree.build(thread, mapping, PageAllocator(512), _entries(500), fanout=8)
        before = tree.node_reads
        tree.lookup(thread, b"key-00000100")
        assert tree.node_reads - before == tree.height

    def test_items_in_order(self):
        _, mapping, thread = _mapping()
        entries = _entries(300)
        tree = FileBTree.build(thread, mapping, PageAllocator(512), entries)
        assert list(tree.items(thread)) == entries

    def test_scan_from(self):
        _, mapping, thread = _mapping()
        tree = FileBTree.build(thread, mapping, PageAllocator(512), _entries(100))
        result = tree.scan_from(thread, b"key-00000050", 5)
        assert [k for k, _ in result] == [b"key-%08d" % i for i in range(50, 55)]

    def test_node_capacity(self):
        assert node_capacity(16) > 100   # many short keys per 4K node
        assert node_capacity(1000) >= 4

    def test_pages_needed_matches_build(self):
        _, mapping, thread = _mapping(pages=1024)
        key_len = len(_entries(1)[0][0])
        fanout = node_capacity(key_len)
        for count in (0, 1, fanout, fanout + 1, fanout * fanout + 1):
            allocator = PageAllocator(1024)
            FileBTree.build(thread, mapping, allocator, _entries(count))
            assert pages_needed(count, key_len) == len(allocator.allocated)


def _assert_reads_match_decode(tree, mapping, thread, pages):
    """Every read equals ``_decode_node`` of the page as it loads now."""
    for page in pages:
        is_leaf, entries, keys = tree._read_node(thread, page)
        blob = mapping.load(thread, page * units.PAGE_SIZE, NODE_SIZE)
        expected_leaf, expected_entries = _decode_node(blob)
        assert (is_leaf, list(entries)) == (expected_leaf, expected_entries)
        assert list(keys) == [key for key, _ in expected_entries]
        assert isinstance(entries, tuple) and isinstance(keys, tuple)


class TestNodeMemo:
    """Each tree decodes a page once; ``_decode_node`` is the oracle."""

    def test_every_read_matches_a_fresh_decode(self):
        _, mapping, thread = _mapping()
        allocator = PageAllocator(512)
        tree = FileBTree.build(thread, mapping, allocator, _entries(500), fanout=8)
        for _ in range(2):   # the second pass reads through the memo
            _assert_reads_match_decode(tree, mapping, thread, allocator.allocated)

    def test_rewritten_page_is_decoded_again(self):
        """The memo is checked against the loaded bytes, not keyed on page."""
        _, mapping, thread = _mapping()
        tree = FileBTree.build(thread, mapping, PageAllocator(512), _entries(4))
        key = b"key-00000002"
        assert tree.lookup(thread, key) == 14
        replacement = [(key, 999)]
        mapping.store(
            thread, tree.root_page * units.PAGE_SIZE, _encode_node(True, replacement)
        )
        assert tree.lookup(thread, key) == 999
        assert tree._read_node(thread, tree.root_page) == (
            True, tuple(replacement), (key,)
        )

    def test_node_reads_count_every_visit(self):
        _, mapping, thread = _mapping()
        allocator = PageAllocator(512)
        tree = FileBTree.build(thread, mapping, allocator, _entries(500), fanout=8)
        before = tree.node_reads
        for _ in range(3):
            tree.lookup(thread, b"key-00000100")
        assert tree.node_reads - before == 3 * tree.height
        before = tree.node_reads
        list(tree.items(thread))
        list(tree.items(thread))
        assert tree.node_reads - before == 2 * len(allocator.allocated)

    def test_memo_hit_costs_the_same_simulated_time(self):
        """A memoized read still makes the full-page load a decode does."""
        _, mapping, thread = _mapping()
        tree = FileBTree.build(thread, mapping, PageAllocator(512), _entries(500), fanout=8)
        cold = FileBTree(mapping, tree.root_page, tree.height, tree.first_key,
                         tree.last_key, tree.entry_count)
        key = b"key-00000321"
        tree.lookup(thread, key)   # warm the cache, the TLB and the memo
        start = thread.clock.now
        assert tree.lookup(thread, key) == 321 * 7
        memo_hit = thread.clock.now - start
        start = thread.clock.now
        assert cold.lookup(thread, key) == 321 * 7
        assert thread.clock.now - start == memo_hit > 0


@settings(max_examples=15, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=20), min_size=1, max_size=120))
def test_model_equivalence(keys):
    _, mapping, thread = _mapping()
    entries = sorted((k, i) for i, k in enumerate(sorted(keys)))
    tree = FileBTree.build(thread, mapping, PageAllocator(512), entries, fanout=8)
    model = dict(entries)
    for key, pointer in model.items():
        assert tree.lookup(thread, key) == pointer
    for probe in (b"", b"\xff" * 21, b"probe"):
        assert tree.lookup(thread, probe) == model.get(probe)


def _assert_matches_model(tree, thread, model):
    ordered = sorted(model.items())
    assert list(tree.items(thread)) == ordered
    for key, pointer in ordered:
        assert tree.lookup(thread, key) == pointer
    for probe in (b"", b"\xff" * 250, b"probe"):
        assert tree.lookup(thread, probe) == model.get(probe)
    for start in [b"", b"probe"] + [key for key, _ in ordered[::7]]:
        expected = [(k, p) for k, p in ordered if k >= start][:5]
        assert tree.scan_from(thread, start, 5) == expected


@settings(max_examples=8, deadline=None)
@given(
    st.sets(st.binary(min_size=1, max_size=20), min_size=1, max_size=120),
    st.sets(st.binary(min_size=1, max_size=20), min_size=1, max_size=120),
)
def test_model_equivalence_across_recover(first, second):
    """spill -> recover -> spill rebuilds level 0 on the same index pages."""
    store, _, thread = make_kreon(
        "kmmap", device_kind="pmem", cache_pages=256,
        volume_bytes=2 * units.MIB, capacity_bytes=64 * units.MIB,
        l0_max_entries=10 ** 6,
    )
    # Ten-fold keys (up to 200 bytes) bring the fanout down to 19: many nodes.
    for key in sorted(first):
        store.put(thread, key * 10, b"first")
    model = dict(store.l0)
    store.spill(thread)
    old_tree, old_pages = store.levels[0], list(store.allocator.allocated)
    _assert_matches_model(old_tree, thread, model)

    store.recover(thread)
    for key in sorted(second):
        store.put(thread, key * 10, b"second")
    model = dict(store.l0)
    store.spill(thread)
    tree = store.levels[0]
    reused = set(old_pages) & set(store.allocator.allocated)
    assert reused
    _assert_matches_model(tree, thread, model)
    # The discarded tree's memo holds the old bytes of the reused pages.
    _assert_reads_match_decode(old_tree, store.mapping, thread, sorted(reused))
