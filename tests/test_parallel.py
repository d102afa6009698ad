import ctypes
import os

import numpy  # noqa: F401 - loads the OpenBLAS that openblas_threads reads
import pytest

from fdspoof.exceptions import SettingError
from fdspoof.parallel import CHUNK_SIZE, chunk, map_chunks, one_blas_thread, openblas_paths

MAPS_LINE = "7f0000000000-7f0000001000 r-xp 00000000 fe:00 42 {}"


def tag_chunk(items):
    """One result per item: the item and the first item of its chunk."""
    return [(item, items[0]) for item in items]


def openblas_threads():
    """Thread count of the first loaded OpenBLAS (numpy's, imported above)
    with a `*get_num_threads*` getter, or None where there is none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = openblas_paths(fh.read())
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def blas_threads_chunk(items):
    return [openblas_threads() for _ in items]


class TestChunk:
    @pytest.mark.parametrize("n, jobs, sizes", [
        (7, 1, [7]),
        (7, 2, [4, 3]),
        (7, 3, [3, 3, 1]),
        (2, 4, [1, 1]),
        (0, 2, []),
        (CHUNK_SIZE + 1, 1, [CHUNK_SIZE, 1]),
        (3 * CHUNK_SIZE, 2, [CHUNK_SIZE] * 3),
    ])
    def test_contiguous_sizes(self, n, jobs, sizes):
        chunks = chunk(list(range(n)), jobs)
        assert [len(c) for c in chunks] == sizes
        assert [i for c in chunks for i in c] == list(range(n))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_setting_error(self, jobs):
        with pytest.raises(SettingError, match="jobs must be >= 1"):
            chunk([1, 2, 3], jobs)
        with pytest.raises(SettingError, match="jobs must be >= 1"):
            map_chunks(tag_chunk, [], jobs)


class TestMapChunks:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_item_order_and_chunk_starts(self, jobs):
        items = list(range(7))
        starts = [c[0] for c in chunk(items, jobs) for _ in c]
        assert map_chunks(tag_chunk, items, jobs) == list(zip(items, starts))

    def test_empty(self):
        assert map_chunks(tag_chunk, [], 2) == []


class TestOneBlasThread:
    def test_openblas_paths_are_listed_once_in_mapping_order(self):
        maps = "\n".join([
            MAPS_LINE.format("/usr/lib/libc.so.6"),
            MAPS_LINE.format("/site/numpy.libs/libscipy_openblas64_-ab12.so"),
            "7f0000002000-7f0000003000 rw-p 00000000 00:00 0",
            MAPS_LINE.format("/usr/lib/libopenblas.so.0"),
            MAPS_LINE.format("/site/numpy.libs/libscipy_openblas64_-ab12.so"),
        ])
        assert openblas_paths(maps) == ["/site/numpy.libs/libscipy_openblas64_-ab12.so",
                                        "/usr/lib/libopenblas.so.0"]

    @pytest.mark.parametrize("maps", ["", MAPS_LINE.format("/usr/lib/libc.so.6") + "\n"])
    def test_no_openblas_in_maps_returns_cleanly(self, maps, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        path = tmp_path / "maps"
        path.write_text(maps)
        assert openblas_paths(maps) == []
        assert one_blas_thread(str(path)) is None
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_missing_maps_file_returns_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert one_blas_thread(str(tmp_path / "no-maps")) is None

    def test_pool_workers_run_one_openblas_thread(self):
        if openblas_threads() is None:
            pytest.skip("no OpenBLAS thread-count getter in this process")
        assert map_chunks(blas_threads_chunk, list(range(4)), 2) == [1] * 4
