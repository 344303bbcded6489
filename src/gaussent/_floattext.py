"""Shortest round-trip text of float64 arrays, many floats per numpy call.

:func:`float_text` writes each float of an array as ``float.__repr__``
does (``nan``/``inf``, or json's ``NaN``/``Infinity``), as the rows of a
NUL-padded uint8 matrix as wide as the longest text, at most
:data:`WIDTH` bytes.  Every array writer, the contour grids' and the
derived spectra's, CSV and JSON, lays out its text, one line per table
row (a head, then a key and a value per cell), in the one block loop of
:meth:`_RowBlocks.chunks`.  Its blocks, those of :func:`row_blocks`, are
whole rows of about :data:`CHUNK` cells, about 1 MB of text, or one longer
row: the writer's fill writes a block's values, and one :func:`float_text`
call formats them into one buffer whose head and keys are written once.
Every array a block needs lives in the writer's :class:`_Workspace`,
allocated on its first block: from then on a block allocates only its text.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020, as in the JDK's ``DoubleToDecimal``): the shortest
decimal that rounds back to the float, the closest such one on a tie,
which are the digits of ``float.__repr__``.  Each 64x64-bit high product
is built from 32-bit limbs in uint64 arrays; ``int64`` and ``uint64``
arrays are never mixed, which numpy would promote to float64.  Java's
fast path for integers is left out: the general path gives integers the
same digits, and one path keeps every significand at 16 or 17 digits.
The text is laid out by one gather through a template per shape: sign,
digit count, and the decimal point's slot or the exponent form, or a
plain text read as it stands.  Zeros, nan and the infinities are such
plain texts, constant rows of the gather's source.  Subnormals alone go
to ``float.__repr__``: there Schubfach, as Java, keeps two digits where
Python keeps one (``4.9E-324`` against ``5e-324``).

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
#: Floats per kernel call: the writers format their cells in chunks of this
#: many, and a larger call is worked through in passes of this many, which
#: bounds the kernel's working set to a few MB.
CHUNK = 1 << 14
# Floats per pass of the layout's gather, whose index takes 8 bytes per
# byte of text.
_LAYOUT_PASS = 1 << 10

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64(0x7FFFFFFFFFFFFFFF)
_T_MASK = _U64((1 << 52) - 1)
_C_MIN = _U64(1 << 52)
_INFINITY = _U64(0x7FF << 52)
#: Digits of the Schubfach significand once left-aligned: 10^16 <= d17 < 10^17.
_H = 17
#: Fixed notation for decimal-point positions -3..16, as ``float.__repr__``.
_FIXED = range(-3, 17)
_FORMS = len(_FIXED) + 2  # then exponents of two and of three digits
# Shapes from _PLAIN on: a text of 0..WIDTH bytes read as it stands from
# the start of its source row.
_PLAIN = 2 * _H * _FORMS
# The decimal point's positions, -324..309, index the form and suffix
# tables from 0.
_DECPT_AT = 324
# The bytes of one row of the layout's source, of _SOURCE_WIDTH bytes.
# Bytes 0..2 hold the constants "-.0", 3..19 the digits (byte 3 the
# leading one), 20..24 the exponent suffix and 27 a NUL: as uint32, word 0
# holds the constants and the leading digit, words 1..4 the other digits
# and words 5..6 the suffix.  A plain text fills the row from byte 0.  The
# source is stored word by word, word w of every row before word w + 1, so
# that each word of the rows is written as one contiguous array.
_MINUS, _DOT, _ZERO = range(3)
_DIGITS_AT = 3
_SUFFIX_AT = 20
_NUL = 27
_SOURCE_WIDTH = 28
# Word 0 less the leading digit's value: "-.0", and "0" in byte 3.
_SOURCE_CONSTANTS = _U64(int.from_bytes(b"-.00", "little"))
# Where each of the four slots of 4-digit groups starts in last_digit.
_SLOT_OFFSETS = (np.arange(4, dtype=_U64) * _U64(10000))[:, None]
# Of +0, -0, nan, +inf and -inf, the one at 2 (inf or nan) + 2 (nan) + the sign.
_CONSTANT_ROWS = np.array([0, 1, 3, 4, 2, 2], np.intp)


class _Tables(NamedTuple):
    # By biased exponent, + 2048 where the spacing below 2^q is irregular:
    k: np.ndarray  # the decimal exponent
    h: np.ndarray  # the shift of Schubfach's cb << h
    g: np.ndarray  # 32-bit limbs of g0 and g1, g = g1 2^63 + g0 ~ 10^-k 2^-r
    quads: np.ndarray  # "0000".."9999" as little-endian uint32
    last_digit: np.ndarray  # position of a 4-digit group's last nonzero digit, per slot
    forms: np.ndarray  # by decimal point, the form: its fixed slot or an exponent's
    suffixes: np.ndarray  # words 5 and 6 by decimal point: "e-325".."e+308"
    templates: np.ndarray  # per shape, the source column of each output byte
    lengths: np.ndarray  # per shape, the length of the text
    specials: dict  # per spelling, the source rows and shapes of +0, -0, nan, +inf and -inf


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
    decpt = np.arange(-_DECPT_AT, 310)
    forms = np.where(
        (decpt >= _FIXED[0]) & (decpt <= _FIXED[-1]),
        decpt - _FIXED[0],
        len(_FIXED) + (np.abs(decpt - 1) >= 100),
    )
    suffixes = text_rows([f"e{e:+03d}" for e in decpt - 1], 8).view("<u4").T.copy()
    templates = _templates()
    lengths = (templates != _NUL).sum(axis=1)
    return _Tables(
        k, h, np.ascontiguousarray(limbs[:, at]), quads.view("<u4").ravel(), last.ravel(),
        forms, suffixes, templates, lengths, _specials(),
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
    """Per shape ((sign * 17 + digits - 1) * _FORMS + form, then _PLAIN +
    length), the source column of each of the WIDTH output bytes, NUL after
    the text."""
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
                rows.append([_MINUS] * sign + cols)
    rows += [list(range(length)) for length in range(WIDTH + 1)]
    return np.array([cols + [_NUL] * (WIDTH - len(cols)) for cols in rows], np.intp)


def _specials() -> dict:
    """Per spelling (json or not), the source rows of the texts of +0, -0,
    nan, +inf and -inf, word by word, and their plain shapes."""
    words = ["0.0", "-0.0", "nan", "inf", "-inf"]
    json_words = words[:2] + ["NaN", "Infinity", "-Infinity"]
    return {
        json: (
            text_rows(spelled, _SOURCE_WIDTH).view("<u4").T.copy(),
            np.array([_PLAIN + len(word) for word in spelled]),
        )
        for json, spelled in ((False, words), (True, json_words))
    }


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
    cell its key, the NUL-padded row of ``keys``, and the value's text (up
    to :data:`WIDTH` bytes, NUL padded).  ``cells`` is the buffer as
    (line, cell, byte).  ``work`` holds every other array a block needs,
    from the first block on.
    """

    def __init__(self, nrows: int, head: bytes, keys: np.ndarray) -> None:
        ncols, self.key = keys.shape
        self.nrows = nrows
        first = next(row_blocks(nrows, ncols), slice(0, 0))  # the longest block
        self.lines = np.zeros((first.stop, len(head) + ncols * (self.key + WIDTH)), np.uint8)
        self.lines[:, : len(head)] = np.frombuffer(head, np.uint8)
        self.cells = self.lines[:, len(head) :].reshape(first.stop, ncols, self.key + WIDTH)
        self.cells[..., : self.key] = keys
        self.work = _Workspace()

    def chunks(self, fill, json: bool) -> Iterator[memoryview]:
        """The bytes of each block, once ``fill(rows, out)`` has written the
        block's values into ``out`` (and any other bytes of its own into
        :attr:`cells`): the values formatted into the buffer, NUL padding
        dropped.  Each is a memoryview of the one array the block allocates."""
        ncols, at = self.cells.shape[1], self.key
        before = 0  # the width of the values' text in the buffer, NUL beyond it
        for rows in row_blocks(self.nrows, ncols):
            n = rows.stop - rows.start
            values = self.work("values", np.float64, n, ncols)
            fill(rows, values)
            text = float_text(values, json, self.work)
            width = text.shape[1]
            # NUL past this block's width, where a block before wrote wider text.
            self.cells[..., at + width : at + before] = 0
            before = width
            self.cells[:n, :, at : at + width] = text.reshape(n, ncols, width)
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


def float_text(values, json: bool = False, work: _Workspace | None = None) -> np.ndarray:
    """``float.__repr__`` of each float64 of ``values``, as the rows of a
    NUL-padded uint8 matrix as wide as the longest text (at most WIDTH);
    ``json`` spells nan and the infinities ``NaN``, ``Infinity`` and
    ``-Infinity``, as ``json`` does.

    ``work`` holds the call's arrays, the matrix among them, for the next
    call to reuse: the matrix holds until then.  Without it the call
    allocates its own.  Callers pass about one :data:`CHUNK` of floats: a
    larger array gets the same text, with a working set that grows with it.
    """
    work = _Workspace() if work is None else work
    floats = np.ascontiguousarray(values, np.float64).ravel()
    n = floats.size
    bits = floats.view(_U64)
    magnitude = np.bitwise_and(bits, _M63, out=work("magnitude", _U64, n))
    # Schubfach writes the finite nonzero floats.
    digits = np.less(magnitude, _INFINITY, out=work("digits", bool, n))
    flag = work("flag", bool, n)
    digits &= np.not_equal(magnitude, _U64(0), out=flag)
    m = np.count_nonzero(digits)
    # Each float's row of the layout's source, and of its shapes: the
    # finite nonzero floats' rows in order, then the constant rows of +0,
    # -0, nan, +inf and -inf.
    row = work("row", np.intp, n)
    np.copyto(row, digits)
    np.add.accumulate(row, out=row)
    row -= 1
    source = work("source", np.uint32, _SOURCE_WIDTH // 4, n + 5)
    shapes = work("shapes", np.intp, n + 5)
    if m < n:
        key = np.right_shift(bits, _U64(63), out=work("key", _U64, n))  # the sign
        step = work("step", _U64, n)
        for test in (np.greater_equal, np.greater):  # inf or nan, then nan
            np.copyto(step, test(magnitude, _INFINITY, out=flag))
            step <<= _U64(1)
            key += step
        constant = np.take(_CONSTANT_ROWS, key.view(np.intp),
                           out=work("constant", np.intp, n), mode="clip")
        constant += m
        constant -= row
        np.copyto(step, np.logical_not(digits, out=flag))
        constant *= step.view(np.intp)
        row += constant
        compact = work("compact", _U64, n + 5)
        np.put(compact, row, bits, mode="clip")
        bits = compact[:m]
        source[:, m : m + 5], shapes[m : m + 5] = _tables().specials[json]
    for start in range(0, m, CHUNK):
        part = slice(start, min(start + CHUNK, m))
        _schubfach(bits[part], source[:, part], shapes[part], work, min(n, CHUNK))
    subnormal = np.less(magnitude, _C_MIN, out=flag)
    subnormal &= digits
    if subnormal.any():
        words = source.view(np.uint8).reshape(len(source), -1, 4)
        for at, value in zip(row[subnormal].tolist(), floats[subnormal].tolist()):
            text = repr(value).encode()
            words[:, at] = np.frombuffer(text.ljust(_SOURCE_WIDTH, b"\0"), np.uint8).reshape(-1, 4)
            shapes[at] = _PLAIN + len(text)
    if m < n:
        shapes = np.take(shapes, row, out=work("shape", np.intp, n), mode="clip")
    return _layout(source, shapes[:n], row, work)


def _layout(source: np.ndarray, shapes: np.ndarray, row: np.ndarray, work) -> np.ndarray:
    """The text of each float, as wide as the longest: byte j of float i is
    column ``templates[shapes[i], j]`` of source row ``row[i]``."""
    tables = _tables()
    n = shapes.size
    lengths = np.take(tables.lengths, shapes, out=work("lengths", np.intp, n), mode="clip")
    width = int(lengths.max(initial=0))
    # Each array is sized for WIDTH, so that no later call of a wider text allocates.
    text = work("text", np.uint8, n, width, capacity=n * WIDTH)
    # Column b of source row r is byte 4 r + b + (b // 4) (4 R - 4) of the R
    # rows' words.
    templates = work("templates", np.intp, len(tables.templates), width,
                     capacity=tables.templates.size)
    np.right_shift(tables.templates[:, :width], 2, out=templates)
    templates *= 4 * (source.shape[1] - 1)
    templates += tables.templates[:, :width]
    row *= 4
    flat = source.view(np.uint8).ravel()
    for start in range(0, n, _LAYOUT_PASS):
        stop = min(start + _LAYOUT_PASS, n)
        part = work("at", np.intp, stop - start, width, capacity=min(n, _LAYOUT_PASS) * WIDTH)
        np.take(templates, shapes[start:stop], axis=0, out=part, mode="clip")
        part += row[start:stop, None]
        np.take(flat, part, out=text[start:stop], mode="clip")
    return text


def _schubfach(bits, source, shapes, work, size: int) -> None:
    """Each finite nonzero float's shape and source row: its Schubfach digits,
    exponent suffix and the constants.  Subnormals get rows, rewritten by
    :func:`float_text`.  The arrays are ``size`` long, whatever the number
    of floats.  A flag enters the arithmetic as a uint64 0 or 1: a ufunc
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
    decpt = np.take(tables.k, at, out=reg("decpt", np.intp), mode="clip")
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
    decpt += 16
    long *= _U64(9)
    d17 = np.multiply(d, np.subtract(_U64(10), long, out=long), out=vb)

    lead = np.floor_divide(d17, _U64(10**16), out=vbl)
    rest = np.subtract(d17, np.multiply(lead, _U64(10**16), out=vbr), out=vbr)
    high = np.floor_divide(rest, _U64(10**8), out=vb)
    low = np.subtract(rest, np.multiply(high, _U64(10**8), out=c), out=c)
    groups = g  # the limbs are spent
    for pair, value in ((groups[:2], high), (groups[2:], low)):
        np.floor_divide(value, _U64(10**4), out=pair[0])
        np.subtract(value, np.multiply(pair[0], _U64(10**4), out=pair[1]), out=pair[1])
    for word, group in zip(source[1:5], groups.view(np.intp)):
        np.take(tables.quads, group, out=word, mode="clip")
    groups += _SLOT_OFFSETS
    last = work("last", np.uint8, 4, n, capacity=4 * size)
    np.take(tables.last_digit, groups.view(np.intp), out=last, mode="clip")
    nd = np.maximum.reduce(last, axis=0, out=work("nd", np.uint8, n, capacity=size))

    # The layout's source: the constants and the leading digit, the other
    # digits and the exponent suffix, which only the exponent forms read.
    lead <<= _U64(24)
    lead += _SOURCE_CONSTANTS
    np.copyto(source[0], lead, casting="unsafe")
    decpt += _DECPT_AT
    for word, suffix in zip(source[5:7], tables.suffixes):
        np.take(suffix, decpt, out=word, mode="clip")
    # The shape: (sign * 17 + nd - 1) * _FORMS + form.
    np.take(tables.forms, decpt, out=shapes, mode="clip")
    sign = np.right_shift(bits, _U64(63), out=t).view(np.intp)
    sign *= _H * _FORMS
    shapes += sign
    digit_count = h.view(np.intp)
    np.copyto(digit_count, nd)
    digit_count -= 1
    digit_count *= _FORMS
    shapes += digit_count


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
