"""Order-preserving parallel map over contiguous chunks of work items.

Items are split into contiguous chunks of `min(CHUNK_SIZE, ceil(n / jobs))`
and the chunk function handles a whole chunk in one call, so batched work (one
curve fit per chunk) is shared by up to CHUNK_SIZE items and a worker hands
back one chunk's results at a time. Results come back in item order whatever
the number of jobs.

While its pool lives, this process runs its BLAS on one thread, and the
workers inherit that count. The MFCC filterbank product is large enough for
OpenBLAS to start a second thread, which then busy-waits between calls, so
each worker would hold two busy CPUs. The count is set before the workers
are forked, never in a worker: in a forked child the setter call itself
starts a helper thread, which busy-waits for about 130 ms beside the worker.
"""

from __future__ import annotations

import contextlib
import math
import os

from .exceptions import SettingError

CHUNK_SIZE = 256

# thread-count calls of the OpenBLAS builds numpy and scipy ship ("get" or
# "set" in the blank), first name with both calls wins
_OPENBLAS_THREAD_CALLS = (
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "scipy_openblas_{}_num_threads64_",
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


@contextlib.contextmanager
def one_blas_thread(maps_path: str = "/proc/self/maps"):
    """Run this process's BLAS on one thread inside the block.

    Sets `OPENBLAS_NUM_THREADS=1`, which an OpenBLAS loaded inside the block
    reads (a spawn or forkserver worker). An OpenBLAS already loaded read it
    at load time, so each one listed in `maps_path` that exports a
    `*get_num_threads*`/`*set_num_threads*` pair (the first of
    `_OPENBLAS_THREAD_CALLS`) is set to 1 through it. On exit every count and
    the variable (value or absence) are restored. Only the variable changes
    where no such library or pair is found (no procfs, MKL, Accelerate).
    """
    saved_env = os.environ.get("OPENBLAS_NUM_THREADS")
    restore = []
    try:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        for getter, setter in _openblas_thread_calls(maps_path):
            restore.append((setter, getter()))
            setter(1)
        yield
    finally:
        for setter, count in restore:
            setter(count)
        if saved_env is None:
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved_env


def _openblas_thread_calls(maps_path: str) -> list:
    """(getter, setter) of each OpenBLAS `maps_path` lists that exports a
    pair of `_OPENBLAS_THREAD_CALLS`; none if `maps_path` cannot be read."""
    try:
        with open(maps_path) as fh:
            paths = openblas_paths(fh.read())
    except OSError:
        return []
    import ctypes

    calls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # replaced on disk since it was mapped
            continue
        for name in _OPENBLAS_THREAD_CALLS:
            get, set_ = name.format("get"), name.format("set")
            if hasattr(lib, get) and hasattr(lib, set_):
                getter, setter = getattr(lib, get), getattr(lib, set_)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                calls.append((getter, setter))
                break
    return calls


def map_chunks(fn, items: list, jobs: int) -> list:
    """`fn(chunk)` returns one result per item of its chunk; the results of
    every chunk, concatenated in item order.

    Runs in this process when `jobs` is 1 or there is a single chunk, else in
    a pool of `min(jobs, n_chunks)` worker processes; `fn` and the items must
    then pickle. While the pool lives this process runs its BLAS on one thread
    (`one_blas_thread`), so the workers start on one thread too; the count is
    restored when the pool is done, whether it returns or raises.
    SettingError if `jobs < 1`.
    """
    chunks = chunk(items, jobs)
    if jobs == 1 or len(chunks) <= 1:
        return [r for part in chunks for r in fn(part)]
    from concurrent.futures import ProcessPoolExecutor

    with one_blas_thread(), ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        return [r for part in pool.map(fn, chunks) for r in part]
