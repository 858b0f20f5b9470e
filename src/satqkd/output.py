"""The one writer of output files: each run writes every file anew."""
from __future__ import annotations

import json
import math
import os

import numpy as np

INF = "Inf"  # the token for an infinite value: a blocked link, an undefined KL

_LABEL_CHUNK = 4096  # time labels formatted at a time: no whole-span string array
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


def write_json(path, obj) -> None:
    """obj as indented JSON with sorted keys and a final newline."""
    with open_new(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    places = 10 ** np.arange(whole + digits - 1, -1, -1, dtype=np.int64)
    figures = (r[:, None] // places % 10).astype(np.uint8) + ord("0")
    figures[:, :whole - 1] *= r[:, None] >= places[:whole - 1]  # no leading zeros
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


def iso_utc(time_us) -> list[str]:
    """datetime.isoformat() of each UTC time in int64 microseconds from the
    Unix epoch: seconds, then .ffffff where the microsecond is nonzero, then
    +00:00."""
    time_us = np.asarray(time_us, dtype=np.int64)
    if time_us.size and not (_US_RANGE[0] <= time_us.min()
                             and time_us.max() <= _US_RANGE[1]):
        raise OverflowError("date value out of range")
    labels: list[str] = []
    for start in range(0, len(time_us), _LABEL_CHUNK):
        us = time_us[start:start + _LABEL_CHUNK]
        text = np.datetime_as_string(us.astype("datetime64[us]"), unit="us")
        text = np.where(us % 1_000_000 == 0, np.strings.slice(text, 19), text)
        labels += np.strings.add(text, "+00:00").tolist()
    return labels
