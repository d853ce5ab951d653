"""Output files that appear whole or not at all."""
from __future__ import annotations

import contextlib
import itertools
import os
from typing import Iterator, TextIO


@contextlib.contextmanager
def atomic_writer(path: str) -> Iterator[TextIO]:
    """Text file whose contents replace ``path`` only when the block completes.

    Writes go to a temporary file beside ``path`` (so ``os.replace`` stays on
    one file system), created like ``open(path, "w")`` would create it.  If
    the block raises, the temporary file is removed and any old ``path``
    stays as it was.  Newlines are written as given, on every platform.
    A temporary name left taken by a killed run is skipped, not reused.  An
    error in opening or replacing names ``path``, not the temporary file.
    """
    temporary = f"{path}.{os.getpid()}.tmp"
    for attempt in itertools.count(1):
        try:
            fh = open(temporary, "x", newline="")
            break
        except FileExistsError:
            temporary = f"{path}.{os.getpid()}.{attempt}.tmp"
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(temporary, path)
    except BaseException as exc:
        os.remove(temporary)
        if isinstance(exc, OSError) and exc.filename == temporary:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise
