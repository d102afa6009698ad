"""Order-preserving parallel map over contiguous chunks of work items.

Items are split into contiguous chunks of `min(CHUNK_SIZE, ceil(n / jobs))`
and the chunk function handles a whole chunk in one call, so batched work (one
curve fit per chunk) is shared by up to CHUNK_SIZE items and a worker hands
back one chunk's results at a time. Results come back in item order whatever
the number of jobs.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

from .exceptions import SettingError

CHUNK_SIZE = 256


def chunk(items: list, jobs: int) -> list[list]:
    """Contiguous chunks of `min(CHUNK_SIZE, ceil(n / jobs))` items."""
    if jobs < 1:
        raise SettingError(f"jobs must be >= 1, got {jobs}")
    size = max(1, min(CHUNK_SIZE, math.ceil(len(items) / jobs)))
    return [items[i : i + size] for i in range(0, len(items), size)]


def map_chunks(fn, items: list, jobs: int) -> list:
    """`fn(chunk)` returns one result per item of its chunk; the results of
    every chunk, concatenated in item order.

    Runs in this process when `jobs` is 1 or there is a single chunk, else in
    a pool of `min(jobs, n_chunks)` worker processes; `fn` and the items must
    then pickle. SettingError if `jobs < 1`.
    """
    chunks = chunk(items, jobs)
    if jobs == 1 or len(chunks) <= 1:
        return [r for part in chunks for r in fn(part)]
    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        return [r for part in pool.map(fn, chunks) for r in part]
