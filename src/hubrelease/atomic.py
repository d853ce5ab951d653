"""Output files that appear whole or not at all."""
from __future__ import annotations

import contextlib
import os
from typing import Iterator, TextIO


@contextlib.contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """Text file whose contents replace ``path`` only when the block completes.

    Writes go to a temporary file beside ``path`` (so ``os.replace`` stays on
    one file system), created like ``open(path, "w")`` would create it.  If
    the block raises, the temporary file is removed and any old ``path``
    stays as it was.  Newlines are written as given, on every platform.
    """
    temporary = f"{path}.{os.getpid()}.tmp"
    fh = open(temporary, "x", newline="")
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        os.remove(temporary)
        raise
