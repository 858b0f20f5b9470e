"""The one writer of output files: each run writes every file anew.

Every CSV cell is a row of a NUL-padded uint8 matrix, and csv_rows joins a
list of such columns into the UTF-8 bytes of CSV rows.  Numbers and times
are spelled by one digit kernel (_figures) through four column makers:
fixed_point, round_trip (repr of a float), integers and iso_utc.  Names
are spelled.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import ExitStack, contextmanager
from functools import cache
from typing import Iterator

import numpy as np

INF = "Inf"  # the token for an infinite value: a blocked link, an undefined KL

_CHUNK = 4096  # CSV rows spelled at a time: no column of text outlives its rows
# int64 microseconds from the Unix epoch of datetime.min and datetime.max in UTC
_US_RANGE = (-62_135_596_800_000_000, 253_402_300_799_999_999)


@contextmanager
def open_new(path):
    """A new UTF-8 text file at path, open for writing in a with block; if
    the block raises, the file is unlinked and the error goes on.

    What is at path is unlinked, not truncated: a symlink or hard link there
    is replaced rather than written through, and ext4 (delayed allocation)
    does not first flush the blocks of a just-written file it would truncate.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    fh = open(path, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(path)
        raise


def _tokens(obj):
    """obj with every infinite float in it replaced by INF."""
    if isinstance(obj, dict):
        return {key: _tokens(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_tokens, obj))
    return INF if isinstance(obj, float) and math.isinf(obj) else obj


def write_json(path, obj) -> None:
    """obj as indented JSON with sorted keys and a final newline: INF for an
    infinite float, which JSON can hold, and ValueError for a NaN."""
    with open_new(path) as fh:
        json.dump(_tokens(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, header: str, chunks) -> None:
    """A CSV file at path: the header line, then the rows of each list of
    column matrices in chunks, as csv_rows joins them."""
    write_csvs([path], header, ([columns] for columns in chunks))


def write_csvs(paths, header: str, chunks) -> None:
    """write_csv of several files with one header, side by side: each chunk
    holds a list of column matrices per path.  If one write fails, none of
    the files is left."""
    with ExitStack() as stack:
        files = [stack.enter_context(open_new(path)) for path in paths]
        for fh in files:
            fh.write(header)
            fh.flush()
        for tables in chunks:
            for fh, columns in zip(files, tables, strict=True):
                fh.buffer.write(csv_rows(columns))


def row_chunks(n_rows: int) -> Iterator[slice]:
    """Rows 0 to n_rows - 1 in slices of at most _CHUNK rows."""
    return (slice(lo, min(lo + _CHUNK, n_rows)) for lo in range(0, n_rows, _CHUNK))


def _figures(r: np.ndarray, width: int, shown: int = 1) -> np.ndarray:
    """The width low decimal digits of each int64 in r >= 0 as ASCII, one row
    each; a leading zero is NUL unless it is one of the last shown."""
    figures = np.empty((len(r), width), np.uint8)
    q = r
    for j in range(width - 1, -1, -1):  # a scalar divisor: numpy's fast integer division
        lower = q // 10
        figures[:, j] = q - lower * 10
        q = lower
    figures += ord("0")
    for j in range(width - shown):
        figures[:, j] *= r >= 10 ** (width - 1 - j)
    return figures


def fixed_point(values, digits: int) -> np.ndarray:
    """format(v, f".{digits}f") of each value, INF where it is infinite, as
    the rows of a NUL-padded uint8 matrix; digits >= 1.

    format writes the correctly rounded decimal, so the integer nearest to
    q = |v| * 10**digits spells it wherever q is more than np.spacing(q)
    from a tie.  Infinities are masked to INF; the rest go through format
    itself: ties, NaN and q >= 2**51, where the spacing reaches 0.5.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        q = np.abs(v) * 10.0 ** digits
        exact = np.abs(q - np.floor(q) - 0.5) > np.spacing(q)  # False for NaN
    r = np.rint(np.where(exact, q, 0.0)).astype(np.int64)
    whole = len(str(int(r.max(initial=0)) // 10 ** digits))  # digits left of the point
    figures = _figures(r, whole + digits, digits + 1)
    text = np.zeros((len(v), whole + digits + 2), np.uint8)
    text[:, 0] = np.signbit(v) * ord("-")  # -0.0 and what rounds to it keep the sign
    text[:, 1:whole + 1] = figures[:, :whole]
    text[:, whole + 1] = ord(".")
    text[:, whole + 2:] = figures[:, whole:]
    rest = np.flatnonzero(~exact)
    infinite = np.isinf(v[rest])
    text[rest[infinite]] = 0
    text[rest[infinite], :len(INF)] = np.frombuffer(INF.encode(), np.uint8)
    rest = rest[~infinite]
    if rest.size:
        text = _respelled(text, rest, [format(x, f".{digits}f") for x in v[rest].tolist()])
    return text


def _respelled(text: np.ndarray, rows: np.ndarray, words: list[str]) -> np.ndarray:
    """text with rows spelled as words, widened where a word is longer."""
    words = np.array(words, dtype="S")
    if words.itemsize > text.shape[1]:
        text = np.pad(text, ((0, 0), (0, words.itemsize - text.shape[1])))
    text[rows] = 0
    text[rows, :words.itemsize] = words[:, None].view(np.uint8)
    return text


# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020) as
# Java's DoubleToDecimal computes it, on uint64 arrays with 32-bit limbs
_K_RANGE = (-324, 292)  # the decimal exponents k the normal doubles use
_LOW32 = (1 << 32) - 1
_LOW63 = (1 << 63) - 1
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_STAND_IN = np.float64(1.5).view(np.uint64)  # computed in place of the rest


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| < 5,000."""
    return (e * 913_124_641_741) >> 38


@cache
def _tenths() -> np.ndarray:
    """The 32-bit limbs (g1 high, g1 low, g0 high, g0 low) of g = g1 * 2**63
    + g0 = floor(10**-k / 2**r) + 1 with 2**125 <= 10**-k / 2**r < 2**126,
    one column per k of _K_RANGE."""
    limbs = []
    for k in range(_K_RANGE[0], _K_RANGE[1] + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        g = (num << -r) // den + 1 if r < 0 else num // (den << r) + 1
        g1, g0 = g >> 63, g & _LOW63
        limbs.append((g1 >> 32, g1 & _LOW32, g0 >> 32, g0 & _LOW32))
    return np.array(limbs, dtype=np.uint64).T.copy()


def _rop(g, cp: np.ndarray) -> np.ndarray:
    """g * cp / 2**127 rounded to odd, as Schubfach's rop: the low 64 bits
    of g0 * cp and the lowest bit of g1 * cp are dropped; cp < 2**59."""
    g1h, g1l, g0h, g0l = g
    bh, bl = cp >> 32, cp & _LOW32
    low = g0l * bl
    x1 = g0h * bh + ((g0l * bh + g0h * bl + (low >> 32)) >> 32)  # high half of g0 * cp
    low = g1l * bl
    mid = g1l * bh + g1h * bl + (low >> 32)
    y1 = g1h * bh + (mid >> 32)  # g1 * cp = y1 * 2**64 + y0
    z = ((mid << 32 | low & _LOW32) >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _LOW63) != 0)


def round_trip(values) -> np.ndarray:
    """repr(v) of each float, the shortest decimal that reads back as v, as
    the rows of a NUL-padded uint8 matrix.

    Positive normal values take Schubfach's digits: the shortest decimal in
    v's rounding interval, the nearer of two.  0.0 is a constant; the rest go
    through repr itself: negatives, -0.0, subnormals, infinities, NaN and
    exact ties between two nearest decimals.  The layout is repr's:
    exponent form where the decimal point would sit 4 or more places left
    of the first digit or more than 16 right of it.
    """
    v = np.asarray(values, dtype=float)
    bits = v.view(np.uint64)
    fast = (bits >> 52) - 1 < 2046  # a sign bit or a biased exponent of 0 or 2047 fails
    bits = np.where(fast, bits, _STAND_IN)
    t = bits & ((1 << 52) - 1)
    c = t | (1 << 52)
    q = (bits >> 52).astype(np.int64) - 1075
    irregular = (t == 0) & (q > -1074)  # a power of two: the lower neighbour is nearer
    # floor(log10(2**q)), and floor(log10(3/4 * 2**q)) where irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = [np.take(limb, k - _K_RANGE[0]) for limb in _tenths()]
    cp = c << (h + 2)
    vb = _rop(g, cp)
    vbl = _rop(g, cp - ((2 - irregular.astype(np.uint64)) << h))
    vbr = _rop(g, cp + (2 << h))
    odd = c & 1  # an even c keeps the interval's ends

    s = vb >> 2
    sp = s // 10  # a multiple of 10**(k + 1): at most one is in the interval
    upin = vbl + odd <= sp * 40
    short = upin != (sp * 40 + 40 + odd <= vbr)
    uin = vbl + odd <= s << 2
    mid = (s << 2) + 2
    one = uin != ((s << 2) + 4 + odd <= vbr)
    below = np.where(one, uin, vb < mid)
    tie = ~(short | one) & (vb == mid)
    d = np.where(short, sp + ~upin, s + ~below).astype(np.int64)
    # 10**14 <= d < 10**17; only a digit of 10**(k + 1) ends in 0
    point = k + short + 15 + (d >= 10 ** 15) + (d >= 10 ** 16)
    exp = k + short
    zeros = np.flatnonzero(short & fast)
    while zeros.size:
        zeros = zeros[d[zeros] % 10 == 0]
        d[zeros] //= 10
        exp[zeros] += 1
    zero = v.view(np.uint64) == 0  # 0.0 as 0.0 * 10**1: 1.5 stood in, with point 1
    d[zero] = 0
    exp[zero] = 0
    return _decimal_text(v, d, point, point - exp, (fast & ~tie) | zero)


def _decimal_text(v, d, point, n_digits, done) -> np.ndarray:
    """repr's text of 0.d * 10**point (d of n_digits digits, not ending in
    0) for each row where done, repr(v) for the others.

    A row is its integer part, the point, up to 3 zeros and the rest of
    the fraction after a marker 1 that is then blanked: 0.00123 is 0, ., 00
    and 1123, 1.0 is 1, . and 10; 1e-05 has neither point nor fraction.
    """
    fixed = (point > -4) & (point <= 16)
    zeros = np.maximum(-point, 0) * fixed
    after = np.where(fixed, np.maximum(n_digits - np.maximum(point, 0), 1), n_digits - 1)
    whole = d * _POW10[np.maximum(point - n_digits + 1, 0) * fixed]
    unit = _POW10[after]
    lead = whole // unit
    zero_width = int(zeros.max(initial=0))
    width = int(after.max(initial=0)) + 1
    lead_width = len(str(int(lead.max(initial=0))))
    exponent = np.flatnonzero(~fixed & done)
    text = np.empty((len(v), lead_width + 1 + zero_width + width + 5 * bool(exponent.size)),
                    np.uint8)
    text[:, :lead_width] = _figures(lead, lead_width)
    text[:, lead_width] = (after > 0) * np.uint8(ord("."))
    for j in range(zero_width):
        text[:, lead_width + 1 + j] = (zeros >= zero_width - j) * np.uint8(ord("0"))
    at = lead_width + 1 + zero_width
    text[:, at:at + width] = _figures(whole - lead * unit + unit, width)
    text[np.arange(len(v)), at + width - 1 - after] = 0
    if exponent.size:
        power = point[exponent] - 1
        text[:, at + width:] = 0
        text[exponent, at + width] = ord("e")
        text[exponent, at + width + 1] = np.where(power < 0, ord("-"), ord("+"))
        text[exponent, at + width + 2:] = _figures(np.abs(power), 3, 2)
    rest = np.flatnonzero(~done)
    if rest.size:
        text = _respelled(text, rest, [repr(x) for x in v[rest].tolist()])
    return text


def spelled(words) -> np.ndarray:
    """bytes or ASCII strings as the rows of a NUL-padded uint8 matrix."""
    return np.array(words, dtype="S")[:, None].view(np.uint8)


def csv_rows(columns: list[np.ndarray]) -> np.ndarray:
    """The rows of the NUL-padded uint8 matrices in columns as the UTF-8
    bytes of CSV text: fields joined by commas, each row ended by a newline,
    NULs dropped."""
    n = len(columns[0])
    comma = np.full((n, 1), ord(","), np.uint8)
    parts = [part for column in columns for part in (column, comma)]
    parts[-1] = np.full((n, 1), ord("\n"), np.uint8)
    table = np.concatenate(parts, axis=1)
    return table[table != 0]


def integers(values) -> np.ndarray:
    """str(v) of each integer v >= 0 as the rows of a NUL-padded uint8 matrix."""
    r = np.asarray(values, dtype=np.int64)
    return _figures(r, len(str(int(r.max(initial=0)))))


def iso_utc(time_us) -> np.ndarray:
    """datetime.isoformat() of each UTC time in int64 microseconds from the
    Unix epoch, as the rows of a NUL-padded uint8 matrix: date and seconds,
    then .ffffff where the microsecond is nonzero, then +00:00."""
    us = np.asarray(time_us, dtype=np.int64)
    if us.size and not (_US_RANGE[0] <= us.min() and us.max() <= _US_RANGE[1]):
        raise OverflowError("date value out of range")
    day, of_day = np.divmod(us, 86_400_000_000)
    days, which = np.unique(day, return_inverse=True)
    dates = np.datetime_as_string(days.astype("datetime64[D]")).astype("S10")
    second, micro = np.divmod(of_day, 1_000_000)
    hours, second = np.divmod(second, 3600)
    # HHMMSSffffff
    clock = (hours * 10_000 + second // 60 * 100 + second % 60) * 1_000_000 + micro
    text = np.zeros((len(us), 32), np.uint8)
    text[:, :10] = dates[:, None].view(np.uint8)[which]
    text[:, [10, 13, 16, 19]] = np.frombuffer(b"T::.", np.uint8)
    text[:, [11, 12, 14, 15, 17, 18, *range(20, 26)]] = _figures(clock, 12, 12)
    text[micro == 0, 19:26] = 0
    text[:, 26:] = np.frombuffer(b"+00:00", np.uint8)
    return text
