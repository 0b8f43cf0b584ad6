"""Transaction ids packed into fixed-width bytes.

A long run keeps one tid per commit twice: in the client metrics'
sample column (:class:`repro.sim.metrics.MetricsCollector`) and in the
server's commit log (:class:`repro.server.database.Database`).  Held as
``str`` objects a tid costs about 55 bytes; packed by :func:`pack_tids`
into one numpy ``S{width}`` array per chunk it costs its encoded length
rounded up to the chunk's widest.  Fixed-width bytes pad with NUL and
numpy strips trailing NULs on the way out, so a tid may hold no NUL:
:func:`pack_tids` refuses one.  UTF-8 bytes compare in code-point order,
so a packed chunk sorts as its ``str`` tids do.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["pack_tids", "unpack_tids"]


def pack_tids(tids: Sequence[str]) -> np.ndarray:
    """``tids`` (at least one) as one fixed-width UTF-8 bytes array, in order."""
    if "\0" in "".join(tids):
        raise ValueError("a transaction id may not contain NUL")
    encoded = [t.encode() for t in tids]
    width = max(map(len, encoded))  # sized here, numpy skips a pass
    return np.array(encoded, dtype=f"S{width}")


def unpack_tids(chunks: Iterable[np.ndarray]) -> List[str]:
    """Every tid of the packed ``chunks`` as a ``str``, in order."""
    return [t.decode() for chunk in chunks for t in chunk.tolist()]
