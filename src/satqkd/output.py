"""The one writer of output files: each run writes every file anew.

Every CSV cell is a row of a NUL-padded uint8 matrix, and csv_rows joins a
list of such columns into the UTF-8 bytes of CSV rows.  Numbers and times
are spelled by one digit kernel (_figures) through three column makers:
fixed_point, integers and iso_utc.  Names and repr cells are spelled.
"""
from __future__ import annotations

import json
import math
import os
from typing import Iterator

import numpy as np

INF = "Inf"  # the token for an infinite value: a blocked link, an undefined KL

_CHUNK = 4096  # CSV rows spelled at a time: no column of text outlives its rows
# int64 microseconds from the Unix epoch of datetime.min and datetime.max in UTC
_US_RANGE = (-62_135_596_800_000_000, 253_402_300_799_999_999)


def open_new(path):
    """A new UTF-8 text file at path, open for writing.

    What is at path is unlinked, not truncated: a symlink or hard link there
    is replaced rather than written through, and ext4 (delayed allocation)
    does not first flush the blocks of a just-written file it would truncate.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "x", encoding="utf-8")


def _tokens(obj):
    """obj with every infinite float in it replaced by INF."""
    if isinstance(obj, dict):
        return {key: _tokens(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_tokens, obj))
    return INF if isinstance(obj, float) and math.isinf(obj) else obj


def write_json(path, obj) -> None:
    """obj as indented JSON with sorted keys and a final newline; an
    infinite float is written as INF, which JSON can hold."""
    with open_new(path) as fh:
        json.dump(_tokens(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: str, chunks) -> None:
    """A CSV file at path: the header line, then the rows of each list of
    column matrices in chunks, as csv_rows joins them."""
    with open_new(path) as fh:
        fh.write(header)
        fh.flush()
        for columns in chunks:
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
    from a tie.  The rest go through format itself: ties, NaN, infinities
    and q >= 2**51, where the spacing reaches 0.5.
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
    if rest.size:
        words = np.array([INF if math.isinf(x) else format(x, f".{digits}f")
                          for x in v[rest].tolist()], dtype="S")
        if words.itemsize > text.shape[1]:
            text = np.pad(text, ((0, 0), (0, words.itemsize - text.shape[1])))
        text[rest] = 0
        text[rest, :words.itemsize] = words[:, None].view(np.uint8)
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
