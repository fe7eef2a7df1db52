"""Radix tree: structure, pruning, and model-based properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.radix import RADIX_FANOUT, RadixTree


class TestBasics:
    def test_empty(self):
        tree = RadixTree()
        assert len(tree) == 0
        assert tree.get(0) is None
        assert 5 not in tree

    def test_insert_get(self):
        tree = RadixTree()
        assert tree.insert(42, "answer")
        assert not tree.insert(42, "ANSWER")   # replace
        assert tree.get(42) == "ANSWER"
        assert 42 in tree

    def test_none_rejected(self):
        tree = RadixTree()
        with pytest.raises(ValueError):
            tree.insert(1, None)
        with pytest.raises(ValueError):
            tree.insert(-1, "x")

    def test_remove(self):
        tree = RadixTree()
        tree.insert(7, "x")
        assert tree.remove(7) == "x"
        assert tree.remove(7) is None
        assert len(tree) == 0

    def test_tree_grows_for_large_keys(self):
        tree = RadixTree()
        big = RADIX_FANOUT ** 4 + 17
        tree.insert(big, "far")
        tree.insert(0, "near")
        assert tree.get(big) == "far"
        assert tree.get(0) == "near"

    def test_get_out_of_range(self):
        tree = RadixTree()
        tree.insert(5, "x")
        assert tree.get(10 ** 12) is None
        assert tree.get(-3) is None


class TestPruning:
    def test_empty_nodes_pruned(self):
        """Internal nodes vanish when their last child is removed."""
        tree = RadixTree()
        big = RADIX_FANOUT ** 3
        tree.insert(big, "x")
        tree.remove(big)
        # The root subtree for that prefix should be gone: a small key
        # inserted afterwards is the only one the tree holds.
        tree.insert(1, "y")
        assert len(tree) == 1
        assert tree.get(1) == "y"
        assert big not in tree


@settings(max_examples=150)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 1 << 20)), max_size=80))
def test_model_equivalence(operations):
    tree = RadixTree()
    model = {}
    for is_insert, key in operations:
        if is_insert:
            assert tree.insert(key, key) == (key not in model)
            model[key] = key
        else:
            expected = model.pop(key, None)
            assert tree.remove(key) == expected
    assert len(tree) == len(model)
    for _, key in operations:
        assert (key in tree) == (key in model)
    for key, value in model.items():
        assert tree.get(key) == value
