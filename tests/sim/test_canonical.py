"""The canonical digest serialization against its reference form.

``canonical_bytes`` feeds every state and telemetry hash in the sweep
manifest, so its output may never move.  ``_reference_canon`` below is
the plain ``isinstance`` chain the serializer started as; the fast form
(exact-type dispatch, homogeneous-sequence joins, memoized float and
string spellings) must produce the same bytes for every input: seeded
random nested structures and the named edge cases where a shortcut could
go wrong.  Float64 arrays (latency streams) must spell exactly as the
tuples of their floats, and ``hash_digest``, which streams the same
bytes into sha256, must equal the hash of ``canonical_bytes``.
"""

import enum
import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.conformance import canonical_bytes, hash_digest
from repro.sim.stats import LatencyRecorder


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


def _stream(rng, n):
    """A latency-like float stream: CPI-1.4 steps, signed zeros, big clocks."""
    values = (6 * 1.4, 6 * 1.4 + 100 * 1.4, 8.399999999999999, 6.0, 0.0, -0.0,
              2.0**53 + 2.0, 1e15 / 3, 5e-324)
    return [rng.choice(values) if rng.random() < 0.7 else rng.uniform(0, 2.0**60)
            for _ in range(n)]


class TestFloatArrays:
    """A 1-d float64 array spells exactly as the tuple of its floats."""

    def test_arrays_match_tuples(self):
        rng = random.Random(0xA11)
        block = 1 << 13
        for n in (0, 1, 63, 64, 65, 1000, block - 1, block, block + 1, 2 * block + 5):
            xs = _stream(rng, n)
            expected = canonical_bytes(tuple(xs))
            assert canonical_bytes(np.array(xs, dtype=np.float64)) == expected, n
            recorder = LatencyRecorder()
            recorder.extend(xs)
            assert canonical_bytes(recorder.samples()) == expected, n

    def test_low_cardinality_array_holding_a_zero(self):
        xs = [8.4] * 5000 + [-0.0] + [8.4] * 5000 + [0.0]
        assert canonical_bytes(np.array(xs)) == canonical_bytes(xs)
        assert b",-0.0,8.4," in canonical_bytes(np.array(xs))

    def test_arrays_nested_in_digests(self):
        rng = random.Random(7)
        xs = _stream(rng, 20000)
        as_tuple = {"threads": [{"latencies": tuple(xs), "clock": 1.5}], "n": 3}
        as_array = {"threads": [{"latencies": np.array(xs), "clock": 1.5}], "n": 3}
        assert canonical_bytes(as_array) == canonical_bytes(as_tuple)
        assert hash_digest(as_array) == hash_digest(as_tuple)

    @pytest.mark.parametrize(
        "bad",
        [
            np.arange(4, dtype=np.int64),
            np.ones(4, dtype=np.float32),
            np.zeros(3, dtype=bool),
            np.zeros((2, 2)),
            np.float64(1.0),
        ],
    )
    def test_other_arrays_and_scalars_are_rejected(self, bad):
        for holder in ({"x": bad}, [1.0, bad], (bad,), bad):
            with pytest.raises(TypeError):
                canonical_bytes(holder)
            with pytest.raises(TypeError):
                hash_digest(holder)


class TestLongContainers:
    """Containers longer than one spelling block match the reference."""

    def test_long_flat_sequences_and_dicts(self):
        rng = random.Random(3)
        n = (1 << 13) * 2 + 17
        _assert_same([(i, rng.randrange(99), i % 2 == 0, "%016x" % i) for i in range(n)])
        _assert_same({i: (rng.randrange(99), True, None) for i in range(n)})
        _assert_same(list(range(n)) + [1.5])
        _assert_same([rng.random() for _ in range(n)])

    def test_keys_that_spell_alike(self):
        # Distinct keys, one spelling: the values' bytes break the tie.
        _assert_same({"label:k": [2.0], Label("k"): [1.0]})
        _assert_same({"label:k": {"a": [1.0]}, Label("k"): {"a": [0.5]}})


_leaves = st.one_of(
    st.floats(allow_nan=False),
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.lists(st.floats(allow_nan=False), max_size=80).map(lambda xs: np.array(xs, dtype=np.float64)),
)
_digests = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(0, 30)), children, max_size=5),
    ),
    max_leaves=25,
)


@given(_digests)
@settings(max_examples=100, deadline=None)
def test_hash_is_the_sha256_of_the_bytes(digest):
    assert hash_digest(digest) == hashlib.sha256(canonical_bytes(digest)).hexdigest()


def _tupled(obj):
    if isinstance(obj, np.ndarray):
        return tuple(obj.tolist())
    if isinstance(obj, dict):
        return {k: _tupled(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_tupled(v) for v in obj)
    return obj


@given(_digests)
@settings(max_examples=200, deadline=None)
def test_arrays_spell_as_their_tuples(digest):
    assert canonical_bytes(digest) == canonical_bytes(_tupled(digest))
    assert canonical_bytes(_tupled(digest)) == _reference_canon(_tupled(digest)).encode("utf-8")


def test_hash_digest_streams_the_bytes():
    # A digest holding a 1M-sample latency stream: hashing it may not
    # build its serialization, so the peak stays far below its length.
    rng = np.random.default_rng(11)
    steps = np.array([6 * 1.4, 6 * 1.4 + 100 * 1.4, 0.1 * 3])
    latencies = rng.choice(steps, size=1 << 20)
    latencies[::97] = rng.uniform(0, 1e9, size=latencies[::97].shape[0])
    recorder = LatencyRecorder()
    recorder.extend(latencies)
    digest = {"threads": [{"clock": 1e12, "latencies": recorder.samples()}], "makespan": 1e12}
    length = len(canonical_bytes(digest))
    tracemalloc.start()
    try:
        hash_digest(digest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length / 4, (peak, length)
