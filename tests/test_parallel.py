import pytest

from fdspoof.exceptions import SettingError
from fdspoof.parallel import CHUNK_SIZE, chunk, map_chunks


def tag_chunk(items):
    """One result per item: the item and the first item of its chunk."""
    return [(item, items[0]) for item in items]


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
