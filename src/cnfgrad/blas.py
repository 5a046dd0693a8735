"""One BLAS thread per process.

numpy's bundled OpenBLAS starts a thread per core. The products a
cnfgrad net computes are small (a batch of rows against a few hundred
columns), so handing them to a second thread costs more than it saves,
and a core busy with another process stalls every product that waits
for it. Importing ``cnfgrad`` therefore sets each OpenBLAS loaded in the
process to one thread through the library's own ``*_set_num_threads*``
entry point. That holds when numpy was imported first, after which
``OPENBLAS_NUM_THREADS`` no longer has any effect. Where no OpenBLAS is
found (another BLAS, or a platform without ``/proc/self/maps``), nothing
changes.
"""

from __future__ import annotations

import ctypes
import os

# Symbol name prefixes (numpy's wheels bundle scipy_openblas, a system build is
# plain openblas) and suffixes (the 64-bit-integer interface adds "64_").
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _loaded_openblas() -> list[ctypes.CDLL]:
    """The OpenBLAS shared libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {fields[5] for fields in (line.split(maxsplit=5) for line in fh) if len(fields) == 6}
    except OSError:
        return []
    libs = []
    for path in sorted(p.rstrip("\n") for p in paths):
        if "openblas" in os.path.basename(path):
            try:
                libs.append(ctypes.CDLL(path))
            except OSError:
                pass
    return libs


def _entry(lib: ctypes.CDLL, verb: str):
    """The library's ``{prefix}_{verb}_num_threads{suffix}`` function, or None."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


def use_one_thread() -> None:
    """Set every loaded OpenBLAS to one thread."""
    for lib in _loaded_openblas():
        setter = _entry(lib, "set")
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def threads() -> int | None:
    """The most threads any loaded OpenBLAS uses, or None when none is loaded."""
    counts = []
    for lib in _loaded_openblas():
        getter = _entry(lib, "get")
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts.append(int(getter()))
    return max(counts, default=None)
