"""The one writer of output files: each run writes every file anew."""
from __future__ import annotations

import json
import os

INF = "Inf"  # the token for an infinite value: a blocked link, an undefined KL


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
