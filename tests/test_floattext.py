"""The vectorized ``float.__repr__`` of ``gaussent._floattext`` against the
one-float-at-a-time loop it replaces, which stays here as the reference.

Run as a script it sweeps more seeded floats, at another seed, in both
spellings, with as many again in chunks of nan, infinities, zeros and
subnormals among normal floats, and exits 1 on a mismatch:

    PYTHONPATH=src python tests/test_floattext.py
"""

import decimal
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussent import _floattext
from gaussent._floattext import CHUNK, WIDTH, _words, _Workspace

JSON_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def reference(values, json: bool) -> list[str]:
    """Each float's ``float.__repr__``, with json's spellings if asked."""
    texts = map(float.__repr__, np.asarray(values, float).ravel().tolist())
    return [JSON_SPELLINGS.get(text, text) if json else text for text in texts]


# One workspace for every call, as a writer keeps one for all its blocks:
# each call must write all of its words over what the calls before it left.
WORK = _Workspace()


def text_matrix(values, json: bool, work: _Workspace = WORK) -> np.ndarray:
    """Each float's text as :func:`_words` writes it, as the rows of a
    NUL-padded (n, WIDTH) uint8 matrix."""
    words = _words(values, json, work)
    assert words.dtype == np.uint64 and words.shape == (WIDTH // 8, np.size(values))
    return np.ascontiguousarray(words.T).view(np.uint8)


def kernel(values, json: bool, work: _Workspace = WORK) -> list[str]:
    """Each float's text as :func:`_words` writes it, padding dropped."""
    return [bytes(row).rstrip(b"\0").decode("ascii") for row in text_matrix(values, json, work)]


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


def mixed(rng, chunks: int, edges: bool = False) -> np.ndarray:
    """``chunks`` CHUNKs of seeded floats, about 40% of them nan (of any sign
    and payload), infinities, zeros or subnormals, the others normal floats
    of random bits; with ``edges``, the first CHUNK holds no normal float
    and the second exactly one."""
    size = chunks * CHUNK
    not_normal = rng.random(size) < 0.4
    if edges:
        not_normal[: 2 * CHUNK] = True
        not_normal[CHUNK + rng.integers(CHUNK)] = False
    sign_payload = rng.integers(0, 2**64, size, dtype=np.uint64) & np.uint64(0x800F_FFFF_FFFF_FFFF)
    exponent = np.where(not_normal, rng.choice(np.array([0, 0x7FF], np.uint64), size),
                        rng.integers(1, 0x7FF, size, dtype=np.uint64))
    cleared = not_normal & (rng.random(size) < 0.5)  # zeros and infinities
    sign_payload[cleared] &= np.uint64(1 << 63)
    return (sign_payload | exponent << np.uint64(52)).view(np.float64)


def test_a_million_seeded_floats_match_repr():
    rng = np.random.default_rng(20261018)
    values = np.concatenate([
        rng.integers(0, 2**64, 333_334, dtype=np.uint64, endpoint=False).view(np.float64),
        rng.uniform(0.0, 4.0, 333_333),
        10.0 ** rng.uniform(-6.0, 20.0, 333_333),
    ])
    assert values.size == 10**6
    chunks = mixed(rng, 16, edges=True)
    normal = (np.isfinite(chunks) & (np.abs(chunks) >= sys.float_info.min)).reshape(16, CHUNK)
    assert normal.sum(axis=1)[:2].tolist() == [0, 1] and 0.35 < 1.0 - normal[2:].mean() < 0.45
    for stream in (values, chunks):
        for json in (False, True):
            # A CHUNK at a time, as the writers call it.
            written = b"".join(
                lines(text_matrix(stream[start : start + CHUNK], json))
                for start in range(0, stream.size, CHUNK)
            ).decode()
            assert written == "".join(text + "\n" for text in reference(stream, json))


@pytest.mark.parametrize("k", [0, 1, 6144, CHUNK])
def test_schubfach_writes_only_the_normal_floats(k, monkeypatch):
    """One call on a CHUNK with k floats that are not normal hands Schubfach
    the other CHUNK - k, and writes every text as repr does."""
    handed = []
    schubfach = _floattext._schubfach

    def spy(bits, *args):
        handed.append(bits.size)
        schubfach(bits, *args)

    monkeypatch.setattr(_floattext, "_schubfach", spy)
    rng = np.random.default_rng(k)
    values = 10.0 ** rng.uniform(-6.0, 20.0, CHUNK)
    at = rng.choice(CHUNK, k, replace=False)
    values[at] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310], k)
    assert kernel(values, False) == reference(values, False)  # one _words call
    assert sum(handed) == CHUNK - k


def test_every_power_of_two_matches_repr():
    values = np.ldexp(1.0, np.arange(-1074, 1024))
    values = np.concatenate([values, -values, np.nextafter(values, 0.0)])
    assert kernel(values, False) == reference(values, False)


def test_one_workspace_serves_blocks_of_every_size_and_kind():
    """Blocks of different sizes and kinds through one workspace, each
    written over the text the one before it left."""
    rng = np.random.default_rng(38)
    work = _Workspace()
    blocks = [
        10.0 ** rng.uniform(-6.0, 20.0, CHUNK),  # all normal
        np.array([1.5, np.nan, -0.0, 5e-324, -np.inf, 1e300, 0.1]),
        np.full(CHUNK, np.nan),
        mixed(rng, 1),  # about 40% not normal
        np.array([-2.2250738585072014e-308]),
    ]
    for values in blocks:
        for json in (False, True):
            assert kernel(values, json, work) == reference(values, json)
    assert work["words"].size == 3 * CHUNK  # allocated once, by the first block


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
    [0, 4), a third 10^U(-6, 20), and as many again, rounded up to whole
    CHUNKs, of :func:`mixed` (from a generator of its own), written a CHUNK
    at a time as the writers call it, in both spellings: each float whose
    text is not its ``repr``."""
    rng, mixed_rng = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    found = []
    for start in range(0, count, piece):
        size = min(piece, count - start)
        values = np.concatenate([
            rng.integers(0, 2**64, size - 2 * (size // 3), dtype=np.uint64).view(np.float64),
            rng.uniform(0.0, 4.0, size // 3),
            10.0 ** rng.uniform(-6.0, 20.0, size // 3),
        ])
        for stream in (values, mixed(mixed_rng, -(-size // CHUNK), edges=not start)):
            for json in (False, True):
                texts = reference(stream, json)
                for at in range(0, stream.size, CHUNK):
                    part = stream[at : at + CHUNK]
                    written = kernel(part, json)
                    if written != texts[at : at + CHUNK]:
                        found += [f"{value!r}: {text!r}" for value, text, want
                                  in zip(part.tolist(), written, texts[at : at + CHUNK])
                                  if text != want]
    return found


if __name__ == "__main__":
    found = sweep(seed=1, count=10**7)
    print(f"{len(found)} mismatches in 10000000 floats and as many mixed at seed 1",
          *found[:20], sep="\n")
    sys.exit(1 if found else 0)
