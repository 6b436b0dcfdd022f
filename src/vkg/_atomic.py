"""Atomic replacement of a text artifact.

A writer fills a temporary file beside the target and, once it has
written everything, moves it over the target with ``os.replace``.  A
writer that raises (or a process killed) part-way leaves the previous
artifact as it was; the temporary file is removed on an exception.  No
``fsync`` is made, so the guarantee covers a failed process, not a power
loss.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, TextIO


@contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose contents replace ``path`` when the block succeeds."""
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
