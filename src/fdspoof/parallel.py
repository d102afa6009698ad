"""Order-preserving parallel map over contiguous chunks of work items.

Items are split into contiguous chunks of `min(CHUNK_SIZE, ceil(n / jobs))`
and the chunk function handles a whole chunk in one call, so batched work (one
curve fit per chunk) is shared by up to CHUNK_SIZE items and a worker hands
back one chunk's results at a time. Results come back in item order whatever
the number of jobs.

Pool workers run their BLAS on one thread. The MFCC filterbank product is
large enough for OpenBLAS to start a second thread, which then busy-waits
between calls, so each worker would hold two busy CPUs.
"""

from __future__ import annotations

import math
import os

from .exceptions import SettingError

CHUNK_SIZE = 256

# thread-count setters of the OpenBLAS builds numpy and scipy ship, first match wins
_OPENBLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def chunk(items: list, jobs: int) -> list[list]:
    """Contiguous chunks of `min(CHUNK_SIZE, ceil(n / jobs))` items."""
    if jobs < 1:
        raise SettingError(f"jobs must be >= 1, got {jobs}")
    size = max(1, min(CHUNK_SIZE, math.ceil(len(items) / jobs)))
    return [items[i : i + size] for i in range(0, len(items), size)]


def openblas_paths(maps: str) -> list[str]:
    """Paths of the OpenBLAS libraries a `/proc/<pid>/maps` text lists, each
    once, in order of first mapping."""
    paths = []
    for line in maps.splitlines():
        fields = line.split(None, 5)
        if len(fields) == 6 and "openblas" in fields[5] and fields[5] not in paths:
            paths.append(fields[5])
    return paths


def one_blas_thread(maps_path: str = "/proc/self/maps") -> None:
    """Pool initializer: run this process's BLAS on one thread.

    Sets `OPENBLAS_NUM_THREADS=1`, which an OpenBLAS loaded after this call
    reads (a spawn or forkserver pool). An OpenBLAS already loaded (a fork
    pool) read it at load time, so each one listed in `maps_path` is set
    through the first of `_OPENBLAS_SETTERS` it exports. Nothing else happens
    where no such library or symbol is found (no procfs, MKL, Accelerate).
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with open(maps_path) as fh:
            paths = openblas_paths(fh.read())
    except OSError:
        return
    import ctypes

    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # replaced on disk since it was mapped
            continue
        setter = next((getattr(lib, name) for name in _OPENBLAS_SETTERS
                       if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def map_chunks(fn, items: list, jobs: int) -> list:
    """`fn(chunk)` returns one result per item of its chunk; the results of
    every chunk, concatenated in item order.

    Runs in this process when `jobs` is 1 or there is a single chunk, else in
    a pool of `min(jobs, n_chunks)` worker processes, each on one BLAS thread
    (`one_blas_thread`); `fn` and the items must then pickle. SettingError if
    `jobs < 1`.
    """
    chunks = chunk(items, jobs)
    if jobs == 1 or len(chunks) <= 1:
        return [r for part in chunks for r in fn(part)]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks)),
                             initializer=one_blas_thread) as pool:
        return [r for part in pool.map(fn, chunks) for r in part]
