"""float64 arrays to their shortest round-trip text and back from decimal
text, many floats per numpy call.

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

The reader, :func:`read_cells`, goes the other way: the comma-separated
cells of a text's lines into a float64 table, each with ``float()``'s
bits, a block of :func:`row_blocks` lines at a time.  It reads a plain
decimal's digits 8 to a uint64 word, from a word view at every byte
offset, as the writers store theirs, and takes its bits from one exact
division or from Eisel–Lemire's 64-bit product; every other cell, and
the rare one the product leaves undecided, it reads by ``float()``.

The tables are built on the first call, not at import: the writers'
by :func:`_tables`, the reader's by :func:`_powers`, so a writer never
builds the reader's, nor the reader the writers'.
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


class _Powers(NamedTuple):
    # By the count f of digits after the point, 0.._DIGITS:
    tens: np.ndarray  # 10^f as uint64
    divisors: np.ndarray  # 10^f as float64, exact
    five: np.ndarray  # 32-bit limbs (low, high) of the high word of fast_float's 5^-f
    exponent: np.ndarray  # fast_float's power(-f) + 1023 - 1
    keep: np.ndarray  # the mask of the last f bytes of 24, as three uint64 words


#: The most digits of a decimal the reader reads by word: w < 10^19 < 2^64.
_DIGITS = 19


@functools.cache
def _powers() -> _Powers:
    """The reader's tables, built on its first call.  fast_float's 128-bit 5^q
    for q = -f < 0 is floor(2^(z+127) / 5^f) + 1, with 2^(z-1) < 5^f <= 2^z."""
    f = range(_DIGITS + 1)
    tens = np.array([10**e for e in f], _U64)
    five = [((1 << (5**e - 1).bit_length() + 127) // 5**e + 1) >> 64 for e in f]
    keep = [((1 << 8 * e) - 1) << 8 * (24 - e) for e in f]
    return _Powers(
        tens, tens.astype(np.float64),
        np.array([[p & 0xFFFFFFFF for p in five], [p >> 32 for p in five]], _U64),
        np.array([(-217_706 * e >> 16) + 63 + 1023 - 1 for e in f], _U64),
        np.array([[k >> 64 * w & (1 << 64) - 1 for w in range(3)] for k in keep], _U64),
    )


def read_cells(text: str, start: int, ncols: int, limit: int) -> np.ndarray | None:
    """The lines of ``text`` from ``start`` on, ``ncols`` comma-separated cells
    each, as an (nrows, ncols) float64 table of each cell's ``float()``, bit
    for bit; a newline at the end of ``text`` ends its last line.  None if
    ``text`` is not ASCII, a line is not ``ncols`` cells, a cell is longer
    than ``limit`` or ``float()`` refuses one, or if ``start`` is below 24:
    the reader reads the 24 bytes that end each cell.

    The lines are read in blocks of :func:`row_blocks`, each into its rows
    of the table.  A cell ``[-]D+.D+`` of at most 8 digits before the point
    and :data:`_DIGITS` in all, w 10^-f, is read by words of 8 digits at
    every byte offset.  If w < 2^53, its value is float(w) / 10^f, one
    exact division (Clinger's fast path).  Else f >= 8, and the first
    64-bit product of Eisel–Lemire (D. Lemire, "Number parsing at a
    gigabyte per second", 2021; N. Mushtak and D. Lemire, "Fast number
    parsing without fallback", 2023) decides, unless the 9 bits below its
    mantissa and rounding bit are all ones.  No halfway case arises: it
    needs f <= 4.  Every other cell is read by ``float()``.
    """
    if start < 24 or not text.isascii():
        return None
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    # ends[r + 1] is where line r ends: its newline, or the text's end.
    # The newlines are found a window at a time, not by a mask of the text.
    window = CHUNK * WIDTH
    ends = [np.array([start - 1], np.intp)]
    ends += (np.flatnonzero(data[at : at + window] == ord("\n")) + at
             for at in range(start, len(text), window))
    if len(text) > start and text[-1] != "\n":
        ends.append(np.array([len(text)], np.intp))
    ends = np.concatenate(ends)
    nrows = ends.size - 1
    table = np.empty((nrows, ncols))
    # Words and 24-byte runs at every byte offset.
    words = np.ndarray((data.size - 7,), "<u8", data, 0, (1,))
    tails = np.ndarray((data.size - 23,), "V24", data, 0, (1,))
    for rows in row_blocks(nrows, ncols):
        block = ends[rows.start : rows.stop + 1]
        if not _read_block(text, data, words, tails, block, table[rows], limit):
            return None
    return table


def _read_block(text, data, words, tails, ends, out, limit) -> bool:
    """Read the lines that end at ``ends[1:]`` into ``out``: False if
    :func:`read_cells` refuses them."""
    nrows, ncols = out.shape
    n = out.size
    lo, hi = ends[0] + 1, ends[-1]
    commas = np.flatnonzero(data[lo:hi] == ord(","))
    if commas.size != nrows * (ncols - 1):
        return False
    commas += lo
    bounds = np.empty((nrows, ncols + 1), np.intp)
    bounds[:, 0], bounds[:, 1:-1], bounds[:, -1] = ends[:-1], commas.reshape(nrows, -1), ends[1:]
    # Each line's share of the commas lies inside it: so each holds ncols - 1.
    if not ((bounds[:, 1] > bounds[:, 0]).all() and (bounds[:, -2] < bounds[:, -1]).all()):
        return False
    first = (bounds[:, :-1] + 1).ravel()
    end = bounds[:, 1:].ravel()
    if (end - first).max() > limit:
        return False
    dots = np.flatnonzero(data[lo:hi] == ord("."))
    dots += lo
    one = True
    if dots.size != n or not ((dots >= first).all() and (dots < end).all()):
        cell = np.searchsorted(end, dots)
        one = np.bincount(cell, minlength=n) == 1
        at = np.zeros(n, np.intp)
        at[cell] = dots
        dots = at
    negative = np.take(data, first, mode="clip") == ord("-")
    before = dots - first
    before -= negative
    after = end - dots
    after -= 1
    fast = (before >= 1) & (before <= 8) & (after >= 1) & (before + after <= _DIGITS) & one
    powers = _powers()
    w = _significands(words, tails, dots, end, before, after, fast, powers)
    cells = out.reshape(-1).view(_U64)
    _binary(w, after, fast, cells, powers)
    cells |= negative.astype(_U64) << _U64(63)
    values = out.reshape(-1)
    for at in np.flatnonzero(~fast).tolist():
        try:
            values[at] = float(text[first[at] : end[at]])
        except ValueError:
            return False
    return True


def _significands(words, tails, dots, end, before, after, fast, powers):
    """Each cell's digits as one uint64 w; ``fast`` is cleared where one of
    them is not a digit.  ``dots`` is spent."""
    n = end.size
    # Indexed, not np.take, which would copy the whole view to contiguous words.
    dots -= 8
    lead = words[np.maximum(dots, 0, out=dots)]  # ends with the digits before the point
    flags = _digits(lead, np.take(powers.keep[:9, 2], before, mode="clip"))
    lead *= np.take(powers.tens, after, mode="clip")
    tail = tails[end - 24].view(_U64).reshape(n, 3)  # the cell's last 24 bytes
    keep = powers.keep.view("V24").ravel()[np.minimum(after, _DIGITS)]
    tail_flags = _digits(tail, keep.view(_U64).reshape(n, 3))
    for column in tail_flags.T:
        flags |= column
    flags &= _U64(0x8080808080808080)
    fast &= flags == _U64(0)
    w = lead  # lead 10^f + (tail_0 10^8 + tail_1) 10^8 + tail_2
    w += tail[:, 2]
    tail[:, 0] *= powers.tens[8]
    tail[:, 0] += tail[:, 1]
    tail[:, 0] *= powers.tens[8]
    w += tail[:, 0]
    return w


def _binary(w, after, fast, cells, powers) -> None:
    """The bits of each w 10^-f into ``cells``: Clinger's division where w < 2^53,
    else Eisel–Lemire's first product, and ``fast`` cleared where the 9 bits
    below its mantissa and rounding bit are all ones.  ``w`` is spent."""
    small = w < _U64(1 << 53)
    # w shifted to fill 64 bits: (w >> 11) is exact as a float.
    shift = (53 - np.frexp((w >> _U64(11)).astype(np.float64))[1]).astype(_U64)
    value = w.astype(np.float64)
    value /= np.take(powers.divisors, after, mode="clip")
    w <<= shift
    high = _high_product(w, np.take(powers.five, after, axis=1, mode="clip"))
    fast &= small | (high & _U64(0x1FF) != _U64(0x1FF))
    top = high >> _U64(63)
    np.add(np.take(powers.exponent, after, mode="clip"), top, out=cells)
    cells -= shift
    cells <<= _U64(52)
    high >>= top + _U64(9)  # the mantissa and its rounding bit
    high += high & _U64(1)
    high >>= _U64(1)
    cells += high  # its bit 52 adds the exponent's one back, and a carry past it one more
    np.copyto(cells, value.view(_U64), where=small)


def _digits(words, keep):
    """Each uint64 of ``words`` in place as the value of its digits that ``keep``
    masks, its last bytes; the flags, nonzero in the top bit of a byte where
    one of them is not a digit."""
    words ^= _U64(0x3030303030303030)  # a digit's byte becomes its value, any other more than 9
    words &= keep
    flags = words + _U64(0x7676767676767676)
    words *= _U64(10 * 256 + 1)
    words >>= _U64(8)
    words &= _U64(0x00FF00FF00FF00FF)
    words *= _U64(100 * 65536 + 1)
    words >>= _U64(16)
    words &= _U64(0x0000FFFF0000FFFF)
    words *= _U64(10000 * (1 << 32) + 1)
    words >>= _U64(32)
    return flags


def _high_product(a, b):
    """The high 64 bits of a b, for uint64 ``a``, spent, and ``b`` given as its
    32-bit limbs (low, high)."""
    b0, b1 = b
    a0 = a & _M32
    a >>= _U64(32)
    middle = a0 * b0
    middle >>= _U64(32)
    a0 *= b1  # the cross products
    b0 = a * b0
    a *= b1
    for cross in (a0, b0):
        middle += cross & _M32
        cross >>= _U64(32)
        a += cross
    middle >>= _U64(32)
    a += middle
    return a
