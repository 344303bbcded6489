"""The vectorized ``float.__repr__`` of ``gaussent._floattext`` against the
one-float-at-a-time loop it replaces, which stays here as the reference.

Run as a script it sweeps more seeded floats, at another seed, in both
spellings, and exits 1 on a mismatch:

    PYTHONPATH=src python tests/test_floattext.py
"""

import decimal
import math
import struct
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussent._floattext import CHUNK, WIDTH, float_text

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


def lines(matrix: np.ndarray) -> bytes:
    """The rows of a NUL-padded text matrix, each ended by a newline, padding dropped."""
    newlines = np.full((len(matrix), 1), ord("\n"), np.uint8)
    text = np.concatenate([matrix, newlines], axis=1).ravel()
    return text[text != 0].tobytes()


def test_a_million_seeded_floats_match_repr():
    rng = np.random.default_rng(20261018)
    values = np.concatenate([
        rng.integers(0, 2**64, 333_334, dtype=np.uint64, endpoint=False).view(np.float64),
        rng.uniform(0.0, 4.0, 333_333),
        10.0 ** rng.uniform(-6.0, 20.0, 333_333),
    ])
    assert values.size == 10**6
    for json in (False, True):
        # A CHUNK at a time, as the writers call it.
        written = b"".join(
            lines(float_text(values[start : start + CHUNK], json))
            for start in range(0, values.size, CHUNK)
        ).decode()
        assert written == "".join(text + "\n" for text in reference(values, json))


def test_every_power_of_two_matches_repr():
    values = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([values, -values, np.nextafter(values, 0.0)])
    assert kernel(values, False) == reference(values, False)


def test_width_is_the_longest_text():
    assert float_text([0.5, 0.25]).shape == (2, 4)
    assert float_text([-2.2250738585072014e-308]).shape == (1, WIDTH)
    assert float_text(np.array([])).shape == (0, 0)
    # Chunks of nan, the infinities, zeros and subnormals, alone or mixed.
    assert float_text([np.nan] * 3, json=True).shape == (3, 3)
    assert float_text([-np.inf], json=True).shape == (1, 9)
    assert float_text([-0.0]).shape == (1, 4)
    assert float_text([np.nan, 5e-324]).shape == (2, 6)



def shape_of(value: float) -> tuple[int, int]:
    """(significant digits, decimal point) of ``repr(value)``: the value is
    0.d1d2... times 10 to the point."""
    digits, exponent = decimal.Decimal(repr(value)).normalize().as_tuple()[1:]
    return len(digits), len(digits) + exponent


def of_shape(negative: bool, digits: int, point: int) -> float:
    """A float whose ``repr`` has ``digits`` significant digits and its
    decimal point at ``point``: the decimal with those digits itself, up to
    15 digits; for 16 or 17, the first float up from it whose ``repr`` has
    as many."""
    value = float(f"{'-' * negative}0.{('123456789' * 2)[:digits]}e{point}")
    while shape_of(value) != (digits, point):
        value = math.nextafter(value, math.inf)
    return value


def test_every_text_shape_matches_repr():
    """Each sign, digit count 1..17 and decimal point -3..16 of the fixed
    notation, and two- and three-digit exponents of both signs."""
    points = [*range(-3, 17), -4, 17, -99, 101]
    values = [of_shape(negative, digits, point)
              for negative in (False, True) for digits in range(1, 18) for point in points]
    assert len(set(map(repr, values))) == 2 * 17 * len(points)
    for json in (False, True):
        assert kernel(values, json) == reference(values, json)


def sweep(seed: int, count: int, piece: int = 1 << 18) -> list[str]:
    """``count`` seeded floats, a third random bit patterns, a third on
    [0, 4), a third 10^U(-6, 20), written a CHUNK at a time as the writers
    call it, in both spellings: each float whose text is not its ``repr``."""
    rng = np.random.default_rng(seed)
    found = []
    for start in range(0, count, piece):
        size = min(piece, count - start)
        values = np.concatenate([
            rng.integers(0, 2**64, size - 2 * (size // 3), dtype=np.uint64).view(np.float64),
            rng.uniform(0.0, 4.0, size // 3),
            10.0 ** rng.uniform(-6.0, 20.0, size // 3),
        ])
        for json in (False, True):
            texts = reference(values, json)
            for at in range(0, size, CHUNK):
                part = values[at : at + CHUNK]
                written = kernel(part, json)
                if written != texts[at : at + CHUNK]:
                    found += [f"{value!r}: {text!r}" for value, text, want
                              in zip(part.tolist(), written, texts[at : at + CHUNK]) if text != want]
    return found


if __name__ == "__main__":
    found = sweep(seed=1, count=10**7)
    print(f"{len(found)} mismatches in 10000000 floats at seed 1", *found[:20], sep="\n")
    sys.exit(1 if found else 0)
