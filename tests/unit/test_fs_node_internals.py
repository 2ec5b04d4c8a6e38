"""How the simulator cuts its local partial into slices and merges them.

``PartialAggregationTask`` hands each slice of its local partial to the
aggregation core as ``Aggregation.segments(index, local)``.
"""

import numpy as np

from repro.repair.aggregate import LOCAL, Aggregation


def slice_views(buffers, num_slices):
    agg = Aggregation(
        rows=3, num_slices=num_slices, children=(), local=True,
        row_len=next(iter(buffers.values())).size,
    )
    return agg, [agg.segments(s, buffers) for s in range(num_slices)]


def test_slice_view_partitions_exactly():
    buffers = {0: np.arange(10, dtype=np.uint8), 2: np.arange(10, dtype=np.uint8)}
    _, slices = slice_views(buffers, 3)
    for row in (0, 2):
        rebuilt = np.concatenate([s[row] for s in slices])
        assert np.array_equal(rebuilt, buffers[row])


def test_slice_view_sizes_differ_by_at_most_one():
    buffers = {0: np.arange(10, dtype=np.uint8)}
    sizes = [s[0].size for s in slice_views(buffers, 3)[1]]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_slice_view_more_slices_than_bytes():
    buffers = {0: np.arange(2, dtype=np.uint8)}
    agg, slices = slice_views(buffers, 5)
    total = np.concatenate([s[0] for s in slices])
    assert np.array_equal(total, buffers[0])
    # Some slices are empty; merging them, like any other, never raises.
    assert any(s[0].size == 0 for s in slices)
    for index, piece in enumerate(slices):
        assert agg.merge(LOCAL, index, index, piece)
    assert np.array_equal(agg.assemble()[:2], buffers[0])


def test_slice_view_single_slice_is_identity():
    buffers = {1: np.arange(7, dtype=np.uint8)}
    agg, (out,) = slice_views(buffers, 1)
    assert np.array_equal(out[1], buffers[1])
    # One slice is the whole row: merged as the row's first contribution
    # it is adopted, so it shares the local partial's memory.
    assert agg.merge(LOCAL, 0, 0, out)
    assert np.shares_memory(agg.partial[1], buffers[1])


def test_slice_view_copies_do_not_alias():
    buffers = {0: np.zeros(8, dtype=np.uint8)}
    agg, slices = slice_views(buffers, 2)
    assert agg.merge(LOCAL, 0, 0, slices[0])
    agg.partial[0][:] = 255
    assert not buffers[0].any()
