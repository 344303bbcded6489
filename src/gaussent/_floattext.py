"""Shortest round-trip text of float64 arrays, many floats per numpy call.

:func:`float_text` writes each float of an array as ``float.__repr__``
does (``nan``/``inf``, or json's ``NaN``/``Infinity``), as the rows of a
NUL-padded uint8 matrix as wide as the longest text, at most
:data:`WIDTH` bytes.  Every array writer, the contour grids' and the
derived spectra's, CSV and JSON, lays out its text with :class:`_RowBlocks`:
blocks of whole rows of about :data:`CHUNK` cells, about 1 MB of text,
each block's values formatted by one :func:`float_text` call into one
buffer whose constant bytes the writer writes once.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020, as in the JDK's ``DoubleToDecimal``): the shortest
decimal that rounds back to the float, the closest such one on a tie,
which are the digits of ``float.__repr__``.  Each 64x64-bit high product
is built from 32-bit limbs in uint64 arrays; ``int64`` and ``uint64``
arrays are never mixed, which numpy would promote to float64.  Java's
fast path for integers is left out: the general path gives integers the
same digits, and one path keeps every significand at 16 or 17 digits.
The text is laid out by one gather through a template per shape: sign,
digit count, and the decimal point's slot or the exponent form.  Zeros,
nan and the infinities are constant rows.  Subnormals alone go to
``float.__repr__``: there Schubfach, as Java, keeps two digits where
Python keeps one (``4.9E-324`` against ``5e-324``).  A chunk that holds
any of these is assembled in one matrix allocated at its final width,
the longest of the normal, constant and subnormal texts it holds.

The tables are built on the first call, not at import.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

#: Bytes per formatted float: "-1.2345678901234567e-308" is the longest.
WIDTH = 24
#: Floats per kernel call: the writers format their cells in chunks of this
#: many, which bounds the kernel's temporaries to a few MB.
CHUNK = 1 << 14

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64(0x7FFFFFFFFFFFFFFF)
_T_MASK = _U64((1 << 52) - 1)
_C_MIN = _U64(1 << 52)
#: Digits of the Schubfach significand once left-aligned: 10^16 <= d17 < 10^17.
_H = 17
#: Fixed notation for decimal-point positions -3..16, as ``float.__repr__``.
_FIXED = range(-3, 17)
_FORMS = len(_FIXED) + 2  # then exponents of two and of three digits
# The bytes of one row of the layout's source, of _SOURCE_WIDTH bytes.
# Bytes 0..2 hold the constants "-.0", 3..19 the digits (byte 3 the
# leading one), 20..24 the exponent suffix and 27 a NUL: as uint32, word 0
# holds the constants and the leading digit, words 1..4 the other digits.
_MINUS, _DOT, _ZERO = range(3)
_DIGITS_AT = 3
_SUFFIX_AT = 20
_NUL = 27
_SOURCE_WIDTH = 28
# Word 0 less the leading digit's value: "-.0", and "0" in byte 3.
_SOURCE_CONSTANTS = np.uint32(int.from_bytes(b"-.00", "little"))
# Where each of the four slots of 4-digit groups starts in last_digit.
_SLOT_OFFSETS = (np.arange(4) * 10000)[:, None]


class _Tables(NamedTuple):
    # By biased exponent, + 2048 where the spacing below 2^q is irregular:
    k: np.ndarray  # the decimal exponent
    h: np.ndarray  # the shift of Schubfach's cb << h
    g: list  # 32-bit limbs of g0 and g1, g = g1 2^63 + g0 ~ 10^-k 2^-r
    quads: np.ndarray  # "0000".."9999" as little-endian uint32
    last_digit: np.ndarray  # position of a 4-digit group's last nonzero digit, per slot
    suffixes: np.ndarray  # "e-324".."e+308", NUL-padded to 5 bytes
    templates: np.ndarray  # per shape, the source column of each output byte
    lengths: np.ndarray  # per shape, the length of the text
    specials: dict  # text of the zeros, nan and the infinities and their lengths, per spelling


@functools.cache
def _tables() -> _Tables:
    """Schubfach's g table, the digit and exponent tables and the layout
    templates: a few ms of work, done on the first call."""
    # Rows 0..2047 by biased exponent bq, then the same for irregular
    # spacing (c = 2^52, bq > 1), where k = floor(log10(3/4 2^q)), not
    # floor(log10(2^q)); q = bq - 1075.
    q = np.tile(np.arange(2048) - 1075, 2)
    k = q * 661_971_961_083 - np.repeat([0, 274_743_187_321], 2048) >> 41
    at = k - k.min()
    g126, r = zip(*map(_g, range(k.min(), k.max() + 1)))
    g0 = [g & ((1 << 63) - 1) for g in g126]
    g1 = [g >> 63 for g in g126]
    limbs = np.array(
        [[g & 0xFFFFFFFF for g in g0], [g >> 32 for g in g0],
         [g & 0xFFFFFFFF for g in g1], [g >> 32 for g in g1]],
        _U64,
    )
    h = (q + np.array(r)[at] + 127).astype(_U64)
    digits = np.indices((10,) * 4, np.uint8).reshape(4, 10000)  # of 0000..9999
    quads = np.ascontiguousarray(digits.T + np.uint8(ord("0")))
    # Position (1-based, in the 17 digits) of the last nonzero digit of a
    # 4-digit group in slot j, which follows 1 + 4 j digits; for "0000", 0,
    # or in slot 0 the position of the leading digit, which is never 0.
    significant = ((digits != 0) * np.arange(1, 5, dtype=np.uint8)[:, None]).max(axis=0)
    slots = np.arange(1, 17, 4, dtype=np.uint8)[:, None]
    last = np.where(significant > 0, significant + slots, np.uint8(0))
    last[0, 0] = 1
    suffixes = text_rows([f"e{e:+03d}" for e in range(-324, 309)])
    templates = _templates()
    lengths = (templates != _NUL).sum(axis=1)
    return _Tables(
        k, h, list(limbs[:, at]), quads.view("<u4").ravel(), last.ravel(),
        suffixes, templates, lengths, _specials(),
    )


def _g(k: int) -> tuple[int, int]:
    """(g, r): g = floor(10^-k 2^-r) + 1, with r such that 2^125 <= g - 1 < 2^126."""
    if k <= 0:
        p = 10 ** (-k)
        r = p.bit_length() - 126
        return (p >> r if r >= 0 else p << -r) + 1, r
    p = 10**k
    s = 125 + p.bit_length()
    return (1 << s) // p + 1, -s


def _templates() -> np.ndarray:
    """Per shape ((sign * 17 + digits - 1) * _FORMS + form), the source
    column of each of the WIDTH output bytes, NUL after the text."""
    rows = []
    for sign in (0, 1):
        for nd in range(1, _H + 1):
            digits = list(range(_DIGITS_AT, _DIGITS_AT + nd))
            for form in range(_FORMS):
                if form < len(_FIXED):
                    decpt = _FIXED[form]
                    if decpt <= 0:
                        cols = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
                    elif decpt < nd:
                        cols = digits[:decpt] + [_DOT] + digits[decpt:]
                    else:
                        cols = digits + [_ZERO] * (decpt - nd) + [_DOT, _ZERO]
                else:
                    suffix = list(range(_SUFFIX_AT, _SUFFIX_AT + 4 + form - len(_FIXED)))
                    cols = digits[:1] + ([_DOT] + digits[1:] if nd > 1 else []) + suffix
                cols = [_MINUS] * sign + cols
                rows.append(cols + [_NUL] * (WIDTH - len(cols)))
    return np.array(rows, np.intp)


def _specials() -> dict:
    """Per spelling (json or not), the text of +0, -0, nan, +inf and -inf
    and the length of each."""
    words = ["0.0", "-0.0", "nan", "inf", "-inf"]
    json_words = words[:2] + ["NaN", "Infinity", "-Infinity"]
    return {
        json: (text_rows(spelled, WIDTH), np.array([len(word) for word in spelled]))
        for json, spelled in ((False, words), (True, json_words))
    }


def text_rows(words, width: int | None = None) -> np.ndarray:
    """``words`` (str) as the rows of a NUL-padded uint8 matrix, ``width`` wide
    or as wide as the longest."""
    encoded = [word.encode("ascii") for word in words]
    width = width or max(map(len, encoded), default=0)
    padded = b"".join(word.ljust(width, b"\0") for word in encoded)
    return np.frombuffer(padded, np.uint8).reshape(len(encoded), width)


class _RowBlocks:
    """The text of a table's cells in blocks of whole rows (⌊:data:`CHUNK`/ncols⌋
    rows, or a :data:`CHUNK`-cell slice of a longer row), laid out in one
    uint8 buffer that every block reuses, so that a writer writes its
    constant bytes once.

    Each line of the buffer holds one row: ``head`` bytes, then per cell
    ``before`` bytes, the value's text (up to :data:`WIDTH` bytes, NUL
    padded) and ``after`` bytes.  ``lines`` is the buffer and ``cells``
    the same bytes as (line, cell, byte).
    """

    def __init__(self, shape: tuple[int, int], head: int, before: int, after: int) -> None:
        self.shape = shape
        nrows, ncols = shape
        nlines, ncells = max(1, min(nrows, CHUNK // ncols)), min(ncols, CHUNK)
        self.lines = np.zeros((nlines, head + ncells * (before + WIDTH + after)), np.uint8)
        self.cells = self.lines[:, head:].reshape(nlines, ncells, -1)
        self.head, self.before = head, before
        self.width = 0  # of the values' text in the buffer, NUL beyond it

    def blocks(self) -> Iterator[tuple[slice, slice, bool]]:
        """(rows, cols, new_cols) per block of the table in row-major order;
        ``new_cols`` is true where ``cols`` differ from the last block's."""
        nrows, ncols = self.shape
        nlines, ncells = self.cells.shape[:2]
        last = None
        for row in range(0, nrows, nlines):
            for col in range(0, ncols, ncells):  # once, unless a row is longer than CHUNK
                cols = slice(col, min(col + ncells, ncols))
                yield slice(row, min(row + nlines, nrows)), cols, cols != last
                last = cols

    def text(self, values: np.ndarray, json: bool) -> bytes:
        """The block's bytes, once its other bytes are written: ``values``
        (its rows and cols of the table) formatted into the buffer, NUL
        padding dropped."""
        nlines, ncells = values.shape
        text = float_text(values, json)
        width = text.shape[1]
        at = self.before
        # In every cell of the buffer, not only the block's: a later block
        # of more cells must find NUL past this block's width.
        self.cells[..., at + width : at + self.width] = 0
        self.width = width
        cells = self.cells[:nlines, :ncells]
        cells[..., at : at + width] = text.reshape(nlines, ncells, width)
        lines = self.lines[:nlines, : self.head + ncells * self.cells.shape[2]].ravel()
        return lines[lines != 0].tobytes()


def float_text(values, json: bool = False) -> np.ndarray:
    """``float.__repr__`` of each float64 of ``values``, as the rows of a
    NUL-padded uint8 matrix as wide as the longest text (at most WIDTH);
    ``json`` spells nan and the infinities ``NaN``, ``Infinity`` and
    ``-Infinity``, as ``json`` does.

    Callers pass about one :data:`CHUNK` of floats: a larger array gets the
    same text, with temporaries that grow with it."""
    floats = np.ascontiguousarray(values, np.float64).ravel()
    bits = floats.view(_U64)
    bq = (bits >> _U64(52)) & _U64(0x7FF)
    normal = (bq != _U64(0)) & (bq != _U64(0x7FF))
    if normal.all():
        return _normal_text(bits, bq)
    # The others are the constant rows of +0, -0, nan, +inf and -inf,
    # bar subnormals, which float.__repr__ writes.
    kept, rest = np.flatnonzero(normal), np.flatnonzero(~normal)
    text = _normal_text(bits[kept], bq[kept])
    infinite = bq[rest] != _U64(0)
    fraction = (bits[rest] & _T_MASK) != _U64(0)
    kind = (bits[rest] >> _U64(63)).view(np.int64) + 3 * infinite
    kind[infinite & fraction] = 2
    subnormals = rest[fraction & ~infinite]
    subnormal_text = text_rows(map(float.__repr__, floats[subnormals].tolist()))
    specials, special_lengths = _tables().specials[json]
    width = max(text.shape[1], special_lengths[kind].max(initial=0), subnormal_text.shape[1])
    out = np.zeros((floats.size, width), np.uint8)
    out[kept, : text.shape[1]] = text
    out[rest] = specials[kind, :width]
    out[subnormals, : subnormal_text.shape[1]] = subnormal_text
    return out


def _normal_text(bits: np.ndarray, bq: np.ndarray) -> np.ndarray:
    """:func:`float_text` of normal (finite, nonzero, not subnormal) floats,
    as wide as the longest of their texts."""
    tables = _tables()
    n = bits.size
    t = bits & _T_MASK
    c = t | _C_MIN
    row = bq.astype(np.intp)
    irregular = (t == _U64(0)) & (row > 1)
    row += irregular * 2048
    # Schubfach's toDecimal: vb, vbl and vbr are v / 10^k and the bounds of
    # its rounding interval, times 4, rounded to odd.
    g = [table.take(row) for table in tables.g]
    cb = c << _U64(2)
    h = tables.h.take(row)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U64(2) + irregular) << h) + (c & _U64(1))
    vbr = _rop(g, (cb + _U64(2)) << h) - (c & _U64(1))
    # The interval includes its bounds for even c; so u = s 10^k lies in
    # it if vbl <= 4 s, and w = (s + 1) 10^k if 4 (s + 1) <= vbr.  A
    # normal double has s >= 10^15: Java's test s >= 100 always holds.
    s = vb >> _U64(2)
    s4 = vb - (vb & _U64(3))
    sp10 = (s // _U64(10)) * _U64(10)
    sp40 = sp10 << _U64(2)
    upin = vbl <= sp40
    wpin = sp40 + _U64(40) <= vbr
    uin = vbl <= s4
    win = s4 + _U64(4) <= vbr
    # Of u and w, the one in the interval; if both or neither, the closer,
    # the even one on a tie.  The shorter sp10 or tp10 = sp10 + 10 wins if
    # exactly one of them lies in the interval.
    up = (vb & _U64(3)) + (s & _U64(1)) > _U64(2)
    up = (win & ~uin) | (~(uin ^ win) & up)
    shorter = upin ^ wpin
    d = s + up
    d += (sp10 + wpin * _U64(10) - d) * shorter
    # 4.5e15 < d < 9.1e16: left-aligned in 17 digits, d17 = d or 10 d.
    long = d >= _U64(10**16)
    d17 = d * (_U64(10) - long * _U64(9))
    decpt = tables.k.take(row) + 16 + long

    lead = d17 // _U64(10**16)
    rest = (d17 - lead * _U64(10**16)).view(np.int64)
    high = rest // 10**8
    low = rest - high * 10**8
    groups = np.empty((4, n), np.intp)
    np.floor_divide(high, 10**4, out=groups[0])
    np.subtract(high, groups[0] * 10**4, out=groups[1])
    np.floor_divide(low, 10**4, out=groups[2])
    np.subtract(low, groups[2] * 10**4, out=groups[3])
    nd = tables.last_digit.take(groups + _SLOT_OFFSETS).max(axis=0)

    # The layout: one gather per output byte through the shape's template,
    # from a row of the digits, the exponent suffix and the constants.
    source = np.empty((n, _SOURCE_WIDTH // 4), "<u4")
    source[:, 0] = (lead << _U64(24)).astype("<u4") + _SOURCE_CONSTANTS
    source[:, 1:5] = tables.quads.take(groups.T)
    source[:, -1] = 0
    source = source.view(np.uint8)
    form = decpt + (-_FIXED[0])
    sci = (decpt < _FIXED[0]) | (decpt > _FIXED[-1])
    if sci.any():
        exp10 = decpt[sci] - 1
        form[sci] = len(_FIXED) + (np.abs(exp10) >= 100)
        source[sci, _SUFFIX_AT : _SUFFIX_AT + 5] = tables.suffixes[exp10 + 324]
    shape = ((bits >> _U64(63)).view(np.int64) * _H + nd - 1) * _FORMS + form
    width = tables.lengths.take(shape).max(initial=0)
    flat = tables.templates[:, :width].take(shape, axis=0)
    flat += np.arange(0, n * _SOURCE_WIDTH, _SOURCE_WIDTH)[:, None]
    return source.ravel().take(flat)


def _rop(g, cp):
    """Schubfach's rop: g cp 2^-127 rounded to odd, for g = g1 2^63 + g0
    given as the 32-bit limbs (g0 low, g0 high, g1 low, g1 high).

    Each high product of a 64-bit limb pair is built from 32-bit limbs;
    as cp < 2^60 and g0, g1 < 2^63, no sum of two cross products overflows.
    """
    g0_lo, g0_hi, g1_lo, g1_hi = g
    c0 = cp & _M32
    c1 = cp >> _U64(32)
    x1 = g0_hi * c1 + (((g0_lo * c0 >> _U64(32)) + g0_lo * c1 + g0_hi * c0) >> _U64(32))
    low = g1_lo * c0
    cross = g1_lo * c1 + g1_hi * c0
    y1 = g1_hi * c1 + (((low >> _U64(32)) + cross) >> _U64(32))
    y0 = low + (cross << _U64(32))
    z = (y0 >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))
