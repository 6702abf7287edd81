"""Two fixed batch slices on worker threads, with BLAS pinned to one thread.

A batch of at least two images is cut into two slices, whatever the number of
workers, so the order in which per-slice results are summed, and with it
every float, depends on the slicing alone: one worker reproduces two workers
bit for bit.  This is data parallelism over the batch in shared memory
(Krizhevsky, "One weird trick for parallelizing convolutional neural
networks", arXiv:1404.5997).

numpy has no API for BLAS threads.  The OpenBLAS that numpy wheels bundle
exports scipy_openblas_{get,set}_num_threads64_; they are looked up in the
libraries the process has mapped.  Without them the slices run one after the
other on the caller's thread and BLAS is left alone, because two slice
threads on a two-thread BLAS oversubscribe the cores.

Importing this module also sets glibc's malloc thresholds once for the whole
process: blocks up to 32 MiB come from the heap instead of their own mmap, and
the heap keeps up to 4 MiB of free space at its top instead of returning it.
glibc's default rule sets both from the largest block freed so far, so with
float64 image arrays near 1 MB it hands the heap back at about 2 MB free, and
each image of background extraction faults about 2 MB of fresh pages back in.
Where libc has no mallopt the allocator is left alone.
"""

import contextvars
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np  # noqa: F401  (maps the bundled OpenBLAS before it is looked up)

SLICES = 2
MAX_WORKERS = 2


def batch_slices(n: int) -> list:
    """Row slices of a batch of n: two halves (the first takes the odd row)
    when n >= 2, else the whole batch."""
    if n < SLICES:
        return [slice(0, n)]
    mid = (n + 1) // 2
    return [slice(0, mid), slice(mid, n)]


@functools.cache
def _blas_threads():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _set_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; a no-op where libc has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # malloc.h
    mallopt(m_mmap_threshold, 32 << 20)  # the ceiling of glibc's own dynamic threshold on 64-bit
    mallopt(m_trim_threshold, 4 << 20)


_set_malloc_thresholds()


def _worker_count() -> int:
    return min(MAX_WORKERS, len(os.sched_getaffinity(0)))


def _map_inline(fn, *iterables) -> list:
    return [fn(*args) for args in zip(*iterables)]


@contextmanager
def slice_workers():
    """Yield run(fn, *iterables) -> list, a map that calls fn once per item
    on the worker threads and returns the results in item order.

    While the block runs, BLAS uses one thread; the count it had before is
    restored when the block exits, by return, exception or interrupt.  Each
    call runs in a copy of the caller's context, so numpy's errstate applies
    on the workers too.
    """
    blas = _blas_threads()
    if blas is None:
        yield _map_inline
        return
    get, put = blas
    before = get()
    put(1)
    try:
        workers = _worker_count()
        if workers < 2:
            yield _map_inline
            return
        with ThreadPoolExecutor(workers, thread_name_prefix="fruitnet-slice") as pool:

            def run(fn, *iterables):
                futures = [pool.submit(contextvars.copy_context().run, fn, *args) for args in zip(*iterables)]
                wait(futures)
                return [f.result() for f in futures]

            yield run
    finally:
        put(before)
