"""One BLAS thread policy for forked children.

A forked child inherits its parent's OpenBLAS thread pool.  Four workers
each spinning a multi-threaded pool on a two-core box spend their time
waiting on one another's spin loops, which turned a 4-worker parallel eval
into a 0.2x slowdown.  :meth:`~repro.parallel.ProcessSupervisor.spawn`
therefore pins every child — pool workers, fleet replicas, λ-fleet
replicas — to :data:`CHILD_BLAS_THREADS` before it runs any task; the
parent, and so every serial arm, keeps its threads.

numpy wheels bundle OpenBLAS as ``numpy.libs/libscipy_openblas64_*.so``,
whose ``scipy_openblas_{set,get}_num_threads64_`` entry points are called
through :mod:`ctypes` — no extra package.  Where that library is absent
(another BLAS build) the pin is a no-op and :func:`pin_blas_threads`
returns the reason instead.
"""

from __future__ import annotations

import ctypes
import glob
import os
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

#: BLAS threads every forked child runs with.
CHILD_BLAS_THREADS = 1

_SETTER = "scipy_openblas_set_num_threads64_"
_GETTER = "scipy_openblas_get_num_threads64_"


@lru_cache(maxsize=1)
def _openblas() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """numpy's bundled OpenBLAS, or ``(None, why not)``."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*")))
    if not paths:
        return None, f"no bundled OpenBLAS in {libs}"
    try:
        lib = ctypes.CDLL(paths[0])
    except OSError as exc:
        return None, f"cannot load {paths[0]}: {exc}"
    if not (hasattr(lib, _SETTER) and hasattr(lib, _GETTER)):
        return None, f"{os.path.basename(paths[0])} lacks {_SETTER}"
    getattr(lib, _SETTER).argtypes = [ctypes.c_int]
    getattr(lib, _SETTER).restype = None
    getattr(lib, _GETTER).argtypes = []
    getattr(lib, _GETTER).restype = ctypes.c_int
    return lib, None


def blas_threads() -> Optional[int]:
    """This process's BLAS thread count (None when it cannot be read)."""
    lib, _ = _openblas()
    return None if lib is None else getattr(lib, _GETTER)()


def pin_blas_threads(n: int = CHILD_BLAS_THREADS) -> Optional[str]:
    """Set this process's BLAS thread count to ``n``.

    Returns None once applied, or the reason it could not be (the call is
    then a no-op).
    """
    lib, reason = _openblas()
    if lib is None:
        return reason
    getattr(lib, _SETTER)(n)
    return None


def blas_thread_policy() -> dict:
    """The parent's and the forked children's BLAS thread counts, for
    benchmark headers (``children`` is None when the pin is a no-op)."""
    lib, reason = _openblas()
    return {"parent": blas_threads(),
            "children": None if lib is None else CHILD_BLAS_THREADS,
            "pin_unavailable": reason}
