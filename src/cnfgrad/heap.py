"""Freed heap pages stay in the process.

A training batch allocates and frees a few dozen float64 arrays of a few
hundred kB each: on mnist-add2, the (4, 10,000) blocks of the outer
products, the kernel's backward and the column gradients. glibc's malloc
moves its mmap and trim thresholds with the sizes freed so far, so a batch
can hand the top of the heap back to the kernel and grow it again in the
next one, each regrown page a minor fault; whether it does depends on the
heap layout that unrelated earlier allocations left. Importing ``cnfgrad``
therefore fixes both thresholds through ``mallopt``: blocks under 4 MiB
come from the heap, and the heap top is trimmed only once 1 GiB of it is
free. Blocks of 4 MiB and more still get a mapping of their own that goes
back at free, so a large run's peak does not grow. Where the C library
has no ``mallopt`` (macOS), nothing changes.
"""

from __future__ import annotations

import ctypes

# mallopt parameters, from glibc's <malloc.h>.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 1 << 30


def _mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows has no handle for the process
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


def keep_freed_pages() -> None:
    """Fix malloc's mmap and trim thresholds, so freed arrays stay mapped."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
