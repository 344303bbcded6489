"""Shortest round-trip text of float64 arrays, many floats per numpy call.

:func:`_words` writes each float of a block as ``float.__repr__`` does
(``nan``/``inf``, or json's ``NaN``/``Infinity``), as three uint64 words
of at most :data:`WIDTH` bytes.  Every array writer, the contour grids'
and the derived spectra's, CSV and JSON, lays out its text, one line per
table row (a head, then a key and a value per cell), in the one block
loop of :meth:`_RowBlocks.chunks`.  Its blocks, those of
:func:`row_blocks`, are whole rows of about :data:`CHUNK` cells, about
1 MB of text, or one longer row: the writer's fill writes a block's
values, and one :func:`_words` call formats them into the words that
three uint64 stores write into one buffer whose head and keys are
written once.  Every array a block needs lives in the writer's
:class:`_Workspace`, allocated on its first block: from then on a block
allocates only its text, and a block with floats that are not normal
also the index of its normal ones.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020, as in the JDK's ``DoubleToDecimal``): the shortest
decimal that rounds back to the float, the closest such one on a tie,
which are the digits of ``float.__repr__``.  Each 64x64-bit high product
is built from 32-bit limbs in uint64 arrays; ``int64`` and ``uint64``
arrays are never mixed, which numpy would promote to float64.  Java's
fast path for integers is left out: the general path gives integers the
same digits, and one path keeps every significand at 16 or 17 digits.

A text is three little-endian uint64 words, its 24 bytes NUL past the
text, kept word by word: word w of every float before word w + 1.  The
17 digits, left-aligned with trailing zeros, are ASCII words from byte 0,
four digits per table read.  The text's shape (sign, digit count, and
the decimal point's place or the exponent form) indexes tables of one
variable byte shift and three masks per word.  The digits shifted by that
many bytes, F, give the digits after the decimal point, and F one byte
back, G, those before it; the third mask holds the constant bytes, the
sign, the ``0.`` and zeros before a leading point, and the point.  The
masks end with the text, so its length cuts it.  Exponent forms then OR
their suffix in after the digits, in blocks that hold one.  In a block
with zeros, nan, infinities or subnormals, every float takes the constant
words of its key, and Schubfach's words of the normal floats, taken
out, are placed back; a subnormal's words are then its ``float.__repr__``:
there Schubfach, as Java, keeps two digits where Python keeps one
(``4.9E-324`` against ``5e-324``).  Every shift count lies in 0..63.

The tables are built on the first call, not at import.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

#: Bytes per formatted float: "-1.2345678901234567e-308" is the longest.
WIDTH = 24
#: Floats per kernel call: the writers format their cells in blocks of whole
#: rows of at most this many, or of one longer row, which bounds the
#: kernel's working set to a few MB for rows no longer than this.
CHUNK = 1 << 14

_U64 = np.uint64
_WORDS = WIDTH // 8
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64(0x7FFFFFFFFFFFFFFF)
_T_MASK = _U64((1 << 52) - 1)
_C_MIN = _U64(1 << 52)
_INFINITY = _U64(0x7FF << 52)
# A magnitude less _C_MIN, which wraps below 0, is at or above this for
# zeros, subnormals, the infinities and nan: Schubfach writes the others.
_NOT_NORMAL = _INFINITY - _C_MIN
#: Digits of the Schubfach significand once left-aligned: 10^16 <= d17 < 10^17.
_H = 17
#: Fixed notation for decimal-point positions -3..16, as ``float.__repr__``.
_FIXED = range(-3, 17)
_FORMS = len(_FIXED) + 2  # then exponents of two and of three digits
# The decimal point's positions, -324..309, index the form and suffix
# tables from 0.
_DECPT_AT = 324
_FIXED_AT = range(_DECPT_AT + _FIXED[0], _DECPT_AT + _FIXED[-1] + 1)
# The texts of +0, -0, +inf, -inf and nan, by sign + 2 (inf or nan) + 2 (nan).
_SPECIALS = ("0.0", "-0.0", "inf", "-inf", "nan", "nan")
_JSON_SPECIALS = _SPECIALS[:2] + ("Infinity", "-Infinity", "NaN", "NaN")


class _Tables(NamedTuple):
    # By biased exponent, + 2048 where the spacing below 2^q is irregular:
    point: np.ndarray  # the decimal point's index, were d 16 digits long
    h: np.ndarray  # the shift of Schubfach's cb << h
    g: np.ndarray  # 32-bit limbs of g0 and g1, g = g1 2^63 + g0 ~ 10^-k 2^-r
    quads: np.ndarray  # "0000".."9999" as little-endian uint64, and the same << 32
    last_digit: np.ndarray  # per group of the 17 digits, (its last nonzero digit - 1) * _FORMS
    forms: np.ndarray  # by decimal point, the form: its fixed slot or an exponent's
    suffixes: np.ndarray  # by decimal point, "e-325".."e+308" << 24, 0 for the fixed forms
    shifts: np.ndarray  # per shape, 8 times the bytes F shifts the digits by
    masks: np.ndarray  # per word, per shape: the bytes of G, those of F, and the constants
    suffix_shifts: np.ndarray  # per word, per shape: the suffix's left and right shifts
    specials: dict  # per spelling, the words of _SPECIALS


@functools.cache
def _tables() -> _Tables:
    """Schubfach's g table, the digit and exponent tables and those of the
    shapes: a few ms of work, done on the first call."""
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
    quads = np.ascontiguousarray(digits.T + np.uint8(ord("0"))).view("<u4").ravel().astype(_U64)
    # Position (1-based, in the 17 digits) of the last nonzero digit of the
    # group in slot j, 4 digits that follow 4 j, or in slot 4 the 17th
    # digit alone, less 1, times _FORMS; 0 if all are 0, which slot 0,
    # whose first digit is the leading one, never is.
    significant = ((digits != 0) * np.arange(1, 5, dtype=np.uint16)[:, None]).max(axis=0)
    last = np.zeros((5, 10000), np.uint16)
    last[:4] = np.where(significant > 0, significant - 1 + np.arange(0, 16, 4, dtype=np.uint16)[:, None], 0)
    last[4, 1:10] = _H - 1
    last *= _FORMS
    decpt = np.arange(-_DECPT_AT, 310)
    forms = np.where(
        (decpt >= _FIXED[0]) & (decpt <= _FIXED[-1]),
        decpt - _FIXED[0],
        len(_FIXED) + (np.abs(decpt - 1) >= 100),
    )
    suffixes = text_rows([f"e{e:+03d}" for e in decpt - 1], 8).view("<u8").ravel() << _U64(24)
    suffixes[_FIXED_AT] = 0
    return _Tables(
        k + _H - 1 + _DECPT_AT, h, np.ascontiguousarray(limbs[:, at]),
        np.array([quads, quads << _U64(32)]), last,
        forms, suffixes, *_shapes(),
        {json: text_rows(words, WIDTH).view("<u8").T.copy()
         for json, words in ((False, _SPECIALS), (True, _JSON_SPECIALS))},
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


def _shapes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per shape, (sign * 17 + digits - 1) * _FORMS + form: the bit shift of
    F, and per word the masks of G, F and the constants, and the left and
    right shifts that place the suffix, held in the top five bytes of a
    word, after the text's other bytes."""
    sign, nd, form = (axis.ravel()[:, None] for axis in np.indices((2, _H, _FORMS)))
    nd += 1
    point = form + _FIXED[0]
    exponent = form >= len(_FIXED)  # d.ddd, then the suffix
    leading = ~exponent & (point <= 0)  # 0.000ddd
    # Else ddd.ddd, with at least one digit after the point.
    shift = np.where(leading, sign + 2 - point, sign + 1)
    before = np.where(exponent, 1, np.where(leading, 0, point))  # digits of G
    after = np.where(exponent, nd - 1, np.where(leading, nd, np.maximum(nd, point + 1) - point))
    dot = np.where(leading, sign + 1, sign + before)
    end = np.where(exponent & (nd == 1), sign + 1, shift + before + after)  # where F's digits end
    at = np.arange(WIDTH)
    g = (at >= sign) & (at < sign + before)
    f = (at >= end - after) & (at < end)
    point_at = (at == dot) & (~exponent | (nd > 1))
    constants = (((at == 0) & (sign == 1)) * np.uint8(ord("-"))
                 + point_at * np.uint8(ord("."))
                 + (leading & (at >= sign) & (at < shift) & ~point_at) * np.uint8(ord("0")))
    lanes = np.stack([g * np.uint8(0xFF), f * np.uint8(0xFF), constants], axis=1)
    rel = 8 * end - 24 - 64 * np.arange(_WORDS)
    return (
        (8 * shift.ravel()).astype(_U64),
        np.ascontiguousarray(lanes.view("<u8").transpose(2, 1, 0), _U64),
        np.array([np.clip(rel, 0, 63).T, np.clip(-rel, 0, 63).T], _U64).transpose(1, 0, 2).copy(),
    )


def text_rows(words, width: int | None = None) -> np.ndarray:
    """``words`` (str) as the rows of a NUL-padded uint8 matrix, ``width`` wide
    or as wide as the longest."""
    encoded = [word.encode("ascii") for word in words]
    width = width or max(map(len, encoded), default=0)
    padded = b"".join(word.ljust(width, b"\0") for word in encoded)
    return np.frombuffer(padded, np.uint8).reshape(len(encoded), width)


class _Workspace(dict):
    """Arrays kept from call to call, by name: each is allocated on its
    first use, and again only if a later call needs it larger, so calls
    no larger than the first allocate none."""

    def __call__(self, name: str, dtype, *shape: int, capacity: int = 0) -> np.ndarray:
        """The first entries of the array ``name``, as an array of ``shape``;
        allocated for at least ``capacity`` entries."""
        size = math.prod(shape)
        array = self.get(name)
        if array is None or array.size < size:
            array = self[name] = np.empty(max(size, capacity), dtype)
        return array[:size].reshape(shape)


def row_blocks(nrows: int, ncols: int) -> Iterator[slice]:
    """The rows of each block of an ``nrows`` x ``ncols`` table, in order:
    ⌊:data:`CHUNK`/ncols⌋ whole rows, the last block maybe fewer, or one row."""
    step = max(1, CHUNK // ncols)
    return (slice(row, min(row + step, nrows)) for row in range(0, nrows, step))


class _RowBlocks:
    """The text of a table's rows, block by block of :func:`row_blocks`, laid
    out in one uint8 buffer that every block reuses, so that a writer
    writes its constant bytes once.

    Each line of the buffer holds one row: the ``head`` bytes, then per
    cell its key, the NUL-padded row of ``keys``, and the value's text
    (:data:`WIDTH` bytes, NUL padded).  ``cells`` is the buffer as
    (line, cell, byte), and ``slots`` the values' text as three unaligned
    uint64 views (line, cell), one per word.  ``work`` holds every other
    array a block needs, from the first block on.
    """

    def __init__(self, nrows: int, head: bytes, keys: np.ndarray) -> None:
        ncols, self.key = keys.shape
        self.nrows = nrows
        first = next(row_blocks(nrows, ncols), slice(0, 0))  # the longest block
        self.lines = np.zeros((first.stop, len(head) + ncols * (self.key + WIDTH)), np.uint8)
        self.lines[:, : len(head)] = np.frombuffer(head, np.uint8)
        self.cells = self.lines[:, len(head) :].reshape(first.stop, ncols, self.key + WIDTH)
        self.cells[..., : self.key] = keys
        strides = (self.lines.strides[0], self.key + WIDTH)
        self.slots = [
            np.ndarray((first.stop, ncols), _U64, self.lines, len(head) + self.key + 8 * w, strides)
            for w in range(_WORDS if first.stop else 0)
        ]
        self.work = _Workspace()

    def chunks(self, fill, json: bool) -> Iterator[memoryview]:
        """The bytes of each block, once ``fill(rows, out)`` has written the
        block's values into ``out`` (and any other bytes of its own into
        :attr:`cells`): the values' words stored into the buffer, NUL padding
        dropped.  Each is a memoryview of the one array the block allocates."""
        ncols = self.cells.shape[1]
        for rows in row_blocks(self.nrows, ncols):
            n = rows.stop - rows.start
            values = self.work("values", np.float64, n, ncols)
            fill(rows, values)
            for slot, word in zip(self.slots, _words(values, json, self.work)):
                np.copyto(slot[:n], word.reshape(n, ncols))
            lines = self.lines[:n]
            yield lines[np.not_equal(lines, 0, out=self.work("kept", bool, *lines.shape))].data


def _json_rows(chunks: Iterator, close: bytes) -> Iterator:
    """The chunks of a JSON array's rows, each row opening with ``close`` and
    a comma, which close the row before it: the first row, which closes
    none, opens the array with ``"["`` in their place."""
    first = next(chunks, None)
    if first is not None:
        yield b"[" + first[len(close) + 1 :]
        yield from chunks


def _words(values, json: bool, work: _Workspace) -> np.ndarray:
    """``float.__repr__`` of each float64 of ``values`` (``json`` spells nan and
    inf as json does) in three uint64 words: a (3, n) array of ``work``, word
    by word.  Unless all are normal: take the normal floats out for Schubfach,
    take the constant words by key, place Schubfach's back where ``normal`` holds."""
    floats = np.ascontiguousarray(values, np.float64).ravel()
    n = floats.size
    bits = floats.view(_U64)
    words = work("words", _U64, _WORDS, n)
    magnitude = np.bitwise_and(bits, _M63, out=work("magnitude", _U64, n))
    magnitude -= _C_MIN
    if n and magnitude.max() < _NOT_NORMAL:
        _schubfach(bits, words, work, n)
        return words
    normal = np.less(magnitude, _NOT_NORMAL, out=work("normal", bool, n))
    # The index is the one array this path allocates: mode="clip" keeps
    # np.take from copying its out.
    index = np.flatnonzero(normal)
    m = index.size
    packed = np.take(bits, index, out=work("packed", _U64, m, capacity=n), mode="clip")
    packed_words = work("packed words", _U64, _WORDS, m, capacity=_WORDS * n)
    if m:
        _schubfach(packed, packed_words, work, n)
    # The key of the constant words: sign + 2 (inf or nan) + 2 (nan).
    magnitude += _C_MIN
    key = np.right_shift(bits, _U64(63), out=work("key", _U64, n))  # the sign
    step = work("step", _U64, n)
    flag = work("flag", bool, n)
    for test in (np.greater_equal, np.greater):  # inf or nan, then nan
        np.copyto(step, test(magnitude, _INFINITY, out=flag))
        step <<= _U64(1)
        key += step
    for word, special, digits in zip(words, _tables().specials[json], packed_words):
        np.take(special, key.view(np.intp), out=word, mode="clip")
        np.place(word, normal, digits)
    # Subnormals: below _C_MIN, less 1 so that zero wraps above it.
    magnitude -= _U64(1)
    for at in np.flatnonzero(np.less(magnitude, _C_MIN - _U64(1), out=flag)).tolist():
        text = repr(floats[at].item()).encode().ljust(WIDTH, b"\0")
        words[:, at] = np.frombuffer(text, "<u8")
    return words


def _schubfach(bits, words, work, size: int) -> None:
    """The words of each normal float's text: its Schubfach digits, laid
    out by its shape.  The arrays are ``size`` long, whatever the number of
    floats.  A flag enters the arithmetic as a uint64 0 or 1: a ufunc
    masked by ``where=`` runs about ten times slower."""
    tables = _tables()
    n = bits.size

    def reg(name, dtype=_U64):
        return work(name, dtype, n, capacity=size)

    t = np.bitwise_and(bits, _T_MASK, out=reg("t"))
    c = np.bitwise_or(t, _C_MIN, out=reg("c"))
    at = np.right_shift(bits, _U64(52), out=reg("exponent"))
    at &= _U64(0x7FF)
    test = np.equal(t, _U64(0), out=reg("test", bool))
    test &= np.greater(at, _U64(1), out=reg("test2", bool))
    irregular = reg("irregular")
    np.copyto(irregular, test)
    at += np.left_shift(irregular, _U64(11), out=t)
    at = at.view(np.intp)
    # Schubfach's toDecimal: vb, vbl and vbr are v / 10^k and the bounds of
    # its rounding interval, times 4, rounded to odd.
    g = work("g", _U64, 4, n, capacity=4 * size)
    for limb, table in zip(g, tables.g):
        np.take(table, at, out=limb, mode="clip")
    h = np.take(tables.h, at, out=reg("h"), mode="clip")
    decpt = np.take(tables.point, at, out=reg("decpt", np.intp), mode="clip")
    cb = np.left_shift(c, _U64(2), out=reg("cb"))
    odd = np.bitwise_and(c, _U64(1), out=t)
    cp = reg("cp")
    vb = _rop(g, np.left_shift(cb, h, out=cp), reg("vb"), reg)
    np.subtract(cb, _U64(2), out=cp)
    cp += irregular
    cp <<= h
    vbl = _rop(g, cp, reg("vbl"), reg)
    vbl += odd
    np.add(cb, _U64(2), out=cp)
    cp <<= h
    vbr = _rop(g, cp, reg("vbr"), reg)
    vbr -= odd
    # The interval includes its bounds for even c; so u = s 10^k lies in
    # it if vbl <= 4 s, and w = (s + 1) 10^k if 4 (s + 1) <= vbr.  A
    # normal double has s >= 10^15: Java's test s >= 100 always holds.
    s = np.right_shift(vb, _U64(2), out=reg("exponent"))  # rop's c0 is spent
    s4 = np.bitwise_and(vb, _U64(3), out=cb)
    tie = np.bitwise_and(s, _U64(1), out=c)
    tie += s4  # (vb & 3) + (s & 1)
    np.subtract(vb, s4, out=s4)
    sp10 = np.floor_divide(s, _U64(10), out=h)
    sp10 *= _U64(10)
    sp40 = np.left_shift(sp10, _U64(2), out=cp)
    upin = np.less_equal(vbl, sp40, out=reg("upin", bool))
    sp40 += _U64(40)
    wpin = np.less_equal(sp40, vbr, out=reg("wpin", bool))
    uin = np.less_equal(vbl, s4, out=reg("uin", bool))
    s4 += _U64(4)
    win = np.less_equal(s4, vbr, out=reg("win", bool))
    # Of u and w, the one in the interval; if both or neither, the closer,
    # the even one on a tie.  The shorter sp10 or tp10 = sp10 + 10 wins if
    # exactly one of them lies in the interval.
    up = np.greater(tie, _U64(2), out=test)
    up &= np.equal(uin, win, out=reg("test2", bool))
    up |= np.greater(win, uin, out=reg("test2", bool))
    flag = irregular  # spent
    d = s
    np.copyto(flag, up)
    d += flag
    step = t  # where shorter, d becomes sp10 + 10 wpin
    np.copyto(step, wpin)
    step *= _U64(10)
    step += sp10
    step -= d
    np.copyto(flag, np.not_equal(upin, wpin, out=upin))
    step *= flag
    d += step
    # 4.5e15 < d < 9.1e16: left-aligned in 17 digits, d17 = d or 10 d.
    long = flag
    np.copyto(long, np.greater_equal(d, _U64(10**16), out=test))
    decpt += long.view(np.intp)
    long *= _U64(9)
    d17 = np.multiply(d, np.subtract(_U64(10), long, out=long), out=vb)

    # The digits in groups: 1..4, 5..8, 9..12 and 13..16 in g (the limbs
    # are spent), the 17th alone; as ASCII, 1..8 in word 0, 9..16 in word 1.
    top = np.floor_divide(d17, _U64(10**9), out=vbl)
    last = np.subtract(d17, np.multiply(top, _U64(10**9), out=vbr), out=vbr)
    middle = np.floor_divide(last, _U64(10), out=c)
    last -= np.multiply(middle, _U64(10), out=cb)
    for pair, value in ((g[:2], top), (g[2:], middle)):
        np.floor_divide(value, _U64(10**4), out=pair[0])
        np.subtract(value, np.multiply(pair[0], _U64(10**4), out=pair[1]), out=pair[1])
    groups = [*g.view(np.intp), last.view(np.intp)]
    # The shape: (sign * 17 + digits - 1) * _FORMS + form.
    shape = np.take(tables.forms, decpt, out=reg("shape", np.intp), mode="clip")
    nd = work("nd", np.uint16, n, capacity=size)
    group_nd = work("group nd", np.uint16, n, capacity=size)
    np.take(tables.last_digit[0], groups[0], out=nd, mode="clip")
    for table, group in zip(tables.last_digit[1:], groups[1:]):
        np.maximum(nd, np.take(table, group, out=group_nd, mode="clip"), out=nd)
    # np.copyto widens nd without the 64 KiB buffer a ufunc casts through.
    wide = c.view(np.intp)  # middle is spent
    np.copyto(wide, nd)
    shape += wide
    digits = (d, long, last)  # d and the flag are spent
    for word, first, second in zip(digits, groups[::2], groups[1::2]):
        np.take(tables.quads[0], first, out=word, mode="clip")
        word |= np.take(tables.quads[1], second, out=cp, mode="clip")
    last += _U64(ord("0"))
    sign = np.right_shift(bits, _U64(63), out=t).view(np.intp)
    sign *= _H * _FORMS
    shape += sign

    # F, the digits shifted by the shape's bytes, into the words; then word
    # by word G, F one byte back, and the text: G's bytes, F's bytes and
    # the constants.
    shift = np.take(tables.shifts, shape, out=h, mode="clip")
    back = np.subtract(_U64(64), shift, out=cb)
    np.left_shift(digits[0], shift, out=words[0])
    for w in (1, 2):
        np.left_shift(digits[w], shift, out=words[w])
        words[w] |= np.right_shift(digits[w - 1], back, out=cp)
    before = c
    mask = cp
    for w, (word, masks) in enumerate(zip(words, tables.masks)):
        np.right_shift(word, _U64(8), out=before)
        if w + 1 < _WORDS:
            before |= np.left_shift(words[w + 1], _U64(56), out=mask)
        before &= np.take(masks[0], shape, out=mask, mode="clip")
        word &= np.take(masks[1], shape, out=mask, mode="clip")
        word |= before
        word |= np.take(masks[2], shape, out=mask, mode="clip")
    if decpt.min() < _FIXED_AT[0] or decpt.max() > _FIXED_AT[-1]:
        suffix = np.take(tables.suffixes, decpt, out=vbl, mode="clip")
        for word, (left, right) in zip(words, tables.suffix_shifts):
            placed = np.left_shift(suffix, np.take(left, shape, out=h, mode="clip"), out=c)
            placed >>= np.take(right, shape, out=h, mode="clip")
            word |= placed


def _rop(g, cp, out, reg):
    """Schubfach's rop: g cp 2^-127 rounded to odd into ``out``, for g = g1 2^63
    + g0 given as the 32-bit limbs (g0 low, g0 high, g1 low, g1 high); ``cp``
    is spent.

    Each high product of a 64-bit limb pair is built from 32-bit limbs;
    as cp < 2^60 and g0, g1 < 2^63, no sum of two cross products overflows.
    """
    g0_lo, g0_hi, g1_lo, g1_hi = g
    c0 = np.bitwise_and(cp, _M32, out=reg("exponent"))  # spent once g, h and k are read
    c1 = cp
    c1 >>= _U64(32)
    product = reg("product")
    x1 = np.multiply(g0_lo, c0, out=reg("x1"))
    x1 >>= _U64(32)
    x1 += np.multiply(g0_lo, c1, out=product)
    x1 += np.multiply(g0_hi, c0, out=product)
    x1 >>= _U64(32)
    x1 += np.multiply(g0_hi, c1, out=product)
    low = np.multiply(g1_lo, c0, out=reg("low"))
    cross = c0
    cross *= g1_hi
    cross += np.multiply(g1_lo, c1, out=product)
    y1 = c1
    y1 *= g1_hi
    carry = np.right_shift(low, _U64(32), out=product)
    carry += cross
    carry >>= _U64(32)
    y1 += carry
    z = cross  # y0 = low + (cross << 32), then z = (y0 >> 1) + x1
    z <<= _U64(32)
    z += low
    z >>= _U64(1)
    z += x1
    y1 += np.right_shift(z, _U64(63), out=product)
    z &= _M63
    z += _M63
    z >>= _U64(63)
    return np.bitwise_or(y1, z, out=out)
