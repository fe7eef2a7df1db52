"""The sorted map behind the simulated rb-trees: model-based properties.

The per-core dirty trees and the Linux VMA tree charge fixed constants
per operation; the host container only has to behave like a dict whose
items come out in key order.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.sorted_map import SortedMap


class TestBasics:
    def test_empty(self):
        tree = SortedMap()
        assert len(tree) == 0
        assert not tree
        assert tree.floor(5) is None
        assert list(tree.items()) == []
        assert 5 not in tree

    def test_insert_get(self):
        tree = SortedMap()
        assert tree.insert(5, "five")
        assert not tree.insert(5, "FIVE")   # update, not new
        assert tree.get(5) == "FIVE"
        assert tree.get(6, "default") == "default"
        assert len(tree) == 1
        assert tree and 5 in tree

    def test_remove(self):
        tree = SortedMap()
        tree.insert(1, "a")
        assert tree.remove(1)
        assert not tree.remove(1)
        assert len(tree) == 0
        assert 1 not in tree

    def test_sorted_iteration(self):
        tree = SortedMap()
        for key in [5, 3, 8, 1, 9, 7]:
            tree.insert(key, key * 10)
        assert [key for key, _ in tree.items()] == [1, 3, 5, 7, 8, 9]
        assert list(tree.items())[0] == (1, 10)

    def test_floor(self):
        tree = SortedMap()
        for key in [10, 20, 30]:
            tree.insert(key, key)
        assert tree.floor(25) == (20, 20)
        assert tree.floor(10) == (10, 10)
        assert tree.floor(31) == (30, 30)
        assert tree.floor(9) is None


class TestInvariants:
    def test_invariants_random_workload(self):
        """A long random workload keeps the items sorted and model-equal."""
        rng = random.Random(99)
        tree = SortedMap()
        model = {}
        for _ in range(2000):
            key = rng.randrange(300)
            if rng.random() < 0.6:
                tree.insert(key, key)
                model[key] = key
            else:
                assert tree.remove(key) == (key in model)
                model.pop(key, None)
            if rng.random() < 0.02:
                assert list(tree.items()) == sorted(model.items())
        assert list(tree.items()) == sorted(model.items())

    def test_descending_insert(self):
        tree = SortedMap()
        for key in range(1000, 0, -1):
            tree.insert(key)
        assert [key for key, _ in tree.items()] == list(range(1, 1001))


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.booleans(), st.integers(0, 100), st.integers()), max_size=80),
    st.integers(-1, 101),
)
def test_model_equivalence(operations, probe):
    """The map behaves exactly like a dict + sorted()."""
    tree = SortedMap()
    model = {}
    for is_insert, key, value in operations:
        if is_insert:
            assert tree.insert(key, value) == (key not in model)
            model[key] = value
        else:
            assert tree.remove(key) == (key in model)
            model.pop(key, None)
    assert list(tree.items()) == sorted(model.items())
    assert len(tree) == len(model)
    assert bool(tree) == bool(model)
    for key in range(-1, 102):
        assert (key in tree) == (key in model)
        assert tree.get(key, "absent") == model.get(key, "absent")
    below = [key for key in model if key <= probe]
    expected = (max(below), model[max(below)]) if below else None
    assert tree.floor(probe) == expected


@settings(max_examples=100)
@given(st.sets(st.integers(0, 10_000), min_size=1, max_size=60),
       st.integers(0, 10_000))
def test_floor_properties(keys, probe):
    tree = SortedMap()
    for key in keys:
        tree.insert(key, key)
    floor = tree.floor(probe)
    below = sorted(k for k in keys if k <= probe)
    assert (floor[0] if floor else None) == (below[-1] if below else None)
