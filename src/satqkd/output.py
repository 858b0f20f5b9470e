"""The one writer of output files: each run writes every file anew."""
from __future__ import annotations

import json
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
