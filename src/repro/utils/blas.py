"""Process-local control of numpy's bundled OpenBLAS thread pool.

Sweep pool workers inherit the parent's BLAS thread count, so ``workers``
processes each running ``cores`` BLAS threads oversubscribe the machine.
The pool initializer in :mod:`repro.experiments.resilience` caps each
worker through :func:`set_blas_threads`.

The library is found the way numpy wheels ship it (``numpy.libs`` next to
the package) and driven through ``ctypes``; no extra dependency is needed.
Where no set-threads symbol resolves (a numpy built against another BLAS,
or no ``numpy.libs``), :func:`resolve` returns ``None`` and the helpers
report that instead of raising.
"""

from __future__ import annotations

import ctypes
import functools
import os
from pathlib import Path
from typing import Callable, NamedTuple, Optional

# (prefix, suffix) pairs for ``<prefix>{get,set}_num_threads<suffix>``, in
# lookup order: scipy-openblas 64-bit, OpenBLAS ILP64, plain OpenBLAS.
_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


class BlasControl(NamedTuple):
    """The resolved get/set thread-count entry points of one library."""

    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


def cpu_count() -> int:
    """Cores this process may run on (its affinity mask where available)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def resolve() -> Optional[BlasControl]:
    """The bundled OpenBLAS's thread controls, or ``None`` (cached per process)."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for library in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(library))
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            getter = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            setter = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if getter is None or setter is None:
                continue
            getter.restype, getter.argtypes = ctypes.c_int, []
            setter.restype, setter.argtypes = None, [ctypes.c_int]
            return BlasControl(getter, setter)
    return None


def blas_threads() -> Optional[int]:
    """This process's BLAS thread count, or ``None`` if it cannot be read."""
    control = resolve()
    return None if control is None else int(control.get_threads())


def set_blas_threads(threads: int) -> bool:
    """Set this process's BLAS thread count; ``False`` if it cannot be set."""
    control = resolve()
    if control is None:
        return False
    control.set_threads(max(1, int(threads)))
    return True
