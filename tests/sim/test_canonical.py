"""The canonical digest serialization against its reference form.

``canonical_bytes`` feeds every state and telemetry hash in the sweep
manifest, so its output may never move.  ``_reference_canon`` below is
the plain ``isinstance`` chain the serializer started as; the fast form
(exact-type dispatch, homogeneous-sequence joins, memoized float and
string spellings) must produce the same bytes for every input: seeded
random nested structures and the named edge cases where a shortcut could
go wrong.
"""

import enum
import json
import math
import random

import numpy as np
import pytest

from repro.sim.conformance import canonical_bytes


def _reference_canon(obj) -> str:
    if isinstance(obj, dict):
        items = sorted((_reference_canon(k), _reference_canon(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        if {float} == set(map(type, obj)):
            return "[" + ",".join(map(repr, obj)) + "]"
        return "[" + ",".join(_reference_canon(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return repr(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _assert_same(obj):
    assert canonical_bytes(obj) == _reference_canon(obj).encode("utf-8"), obj


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2


class Pair(tuple):
    pass


class Label(str):
    def __str__(self):
        return "label:" + super().__str__()


class TestEdgeCases:
    def test_signed_zeros_in_one_stream(self):
        for stream in ([0.0, -0.0] * 40, [-0.0] + [8.4] * 100, [8.4] * 100 + [0.0]):
            _assert_same(stream)
            _assert_same(tuple(stream))
        assert canonical_bytes([-0.0] + [8.4] * 100).startswith(b"[-0.0,")

    def test_nan_and_infinities(self):
        nans = [float("nan") for _ in range(3)]
        _assert_same([math.inf, -math.inf] + nans)
        _assert_same([math.nan] * 200 + [math.inf] * 100 + [1.5] * 50)
        _assert_same({"x": math.nan, "y": (-math.inf, 2.0)})

    def test_bool_and_int_in_one_tuple(self):
        _assert_same((True, 1, False, 0, 2))
        _assert_same([True] * 100)
        _assert_same([1] * 50 + [True])

    def test_int_enum_and_tuple_subclass(self):
        _assert_same((Color.RED, Color.BLUE, 3))
        _assert_same({Color.RED: [Color.BLUE] * 3})
        _assert_same(Pair((1.0, 2.0)))
        _assert_same([Pair((1, 2)), Pair(()), (1.5,)])
        _assert_same({"label": Label("x"), Label("k"): 1})

    def test_strings_with_quotes_and_non_ascii(self):
        _assert_same(['he said "hi"', "back\\slash", "tab\tnew\nline", "naïve", "日本", "😀"])
        _assert_same({"ünïcode": "quote\"d", "": ""})

    def test_empty_containers(self):
        for empty in ({}, [], (), [[]], {"a": {}}, [(), {}], ""):
            _assert_same(empty)

    def test_int_keys_sort_as_text(self):
        _assert_same({9: "a", 10: "b", 100: "c", -1: "d"})
        assert canonical_bytes({9: 0, 10: 0}) == b"{10:0,9:0}"
        _assert_same({"9": 1, "10": 2, 9: 3})

    def test_low_and_high_cardinality_float_streams(self):
        rng = random.Random(5)
        low = [rng.choice((8.399999999999999, 148.4, 6.0, 1e300)) for _ in range(5000)]
        high = [rng.random() * 1e6 for _ in range(5000)]
        mixed = [1.4 * i for i in range(64)] + [8.4] * 4000
        for stream in (low, high, mixed, low[:63], high[:64], low + high):
            _assert_same(stream)
            _assert_same(tuple(stream))

    def test_numpy_scalars_are_rejected(self):
        for scalar in (np.float64(1.0), np.int64(3), np.bool_(True), np.float32(0.5)):
            with pytest.raises(TypeError):
                canonical_bytes({"x": scalar})
            with pytest.raises(TypeError):
                canonical_bytes([1.0, scalar])


def _random_leaf(rng):
    kind = rng.randrange(9)
    if kind == 0:
        return rng.choice((0.0, -0.0, 6.0, 8.399999999999999, math.inf, math.nan, 1e-300))
    if kind == 1:
        return rng.random() * rng.choice((1.0, 1e9, 1e-9))
    if kind == 2:
        return rng.randrange(-(1 << 70), 1 << 70)
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return "".join(rng.choice('ab"\\é中 \n') for _ in range(rng.randrange(6)))
    if kind == 5:
        return Color(rng.choice((1, 2)))
    if kind == 6:
        pool = [rng.choice((6.0, 8.4, 148.4, -0.0)) for _ in range(3)]
        return [rng.choice(pool) for _ in range(rng.randrange(200))]
    if kind == 7:
        return tuple(rng.randrange(5) for _ in range(rng.randrange(70)))
    return [rng.random() for _ in range(rng.randrange(100))]


def _random_structure(rng, depth=0):
    if depth >= 3 or rng.random() < 0.3:
        return _random_leaf(rng)
    shape = rng.randrange(4)
    children = [_random_structure(rng, depth + 1) for _ in range(rng.randrange(6))]
    if shape == 0:
        return children
    if shape == 1:
        return tuple(children)
    if shape == 2:
        return Pair(children)
    keys = [rng.choice((rng.randrange(20), f"k{rng.randrange(20)}", Color.RED)) for _ in children]
    return dict(zip(keys, children))


def test_random_structures_match_the_reference():
    rng = random.Random(0xCA40)
    for case in range(400):
        obj = _random_structure(rng)
        assert canonical_bytes(obj) == _reference_canon(obj).encode("utf-8"), case
