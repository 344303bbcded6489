"""The vectorized ``float.__repr__`` of ``gaussent._floattext`` against the
one-float-at-a-time loop it replaces, which stays here as the reference."""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussent._floattext import WIDTH, compose, float_text, text_rows

JSON_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def reference(values, json: bool) -> list[str]:
    """Each float's ``float.__repr__``, with json's spellings if asked."""
    texts = map(float.__repr__, np.asarray(values, float).ravel().tolist())
    return [JSON_SPELLINGS.get(text, text) if json else text for text in texts]


def kernel(values, json: bool) -> list[str]:
    """Each float's text as :func:`float_text` writes it, padding dropped."""
    matrix = float_text(values, json)
    assert matrix.dtype == np.uint8 and matrix.ndim == 2 and matrix.shape[1] <= WIDTH
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in matrix]


def bits_of(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


EDGES = [
    0.0, 5e-324,
    2.225073858507201e-308,  # the largest subnormal
    2.2250738585072014e-308,  # the smallest normal
    1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
    float(2**53 - 1), float(2**53 + 1), float(2**53 + 2),
    1e23, 1.7976931348623157e308, math.inf, math.nan,
]


def with_edges(test):
    """``test`` with an example of each edge value and of its negative."""
    for value in EDGES:
        test = example(bits_of(value))(example(bits_of(-value))(test))
    return test


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 2**64 - 1))
@with_edges
def test_one_float_matches_repr(bits):
    value = np.array([bits], np.uint64).view(np.float64)
    for json in (False, True):
        assert kernel(value, json) == reference(value, json)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
def test_arrays_of_bit_patterns_match_repr(patterns):
    """Normal floats beside zeros, nan, infinities and subnormals in one call."""
    values = np.array(patterns, np.uint64).view(np.float64)
    for json in (False, True):
        assert kernel(values, json) == reference(values, json)


def test_a_million_seeded_floats_match_repr():
    rng = np.random.default_rng(20261018)
    values = np.concatenate([
        rng.integers(0, 2**64, 333_334, dtype=np.uint64, endpoint=False).view(np.float64),
        rng.uniform(0.0, 4.0, 333_333),
        10.0 ** rng.uniform(-6.0, 20.0, 333_333),
    ])
    assert values.size == 10**6
    for json in (False, True):
        assert compose(float_text(values, json), "\n") == "".join(
            text + "\n" for text in reference(values, json)
        )


def test_every_power_of_two_matches_repr():
    values = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([values, -values, np.nextafter(values, 0.0)])
    assert kernel(values, False) == reference(values, False)


def test_width_is_the_longest_text():
    assert float_text([0.5, 0.25]).shape == (2, 4)
    assert float_text([-2.2250738585072014e-308]).shape == (1, WIDTH)
    assert float_text(np.array([])).shape == (0, 0)


def test_compose_lays_pieces_side_by_side_and_drops_padding():
    left = text_rows(["a", "bcd"])
    right = text_rows(["xy", ""])
    assert compose(left, "=", right, ";\n") == "a=xy;\nbcd=;\n"
