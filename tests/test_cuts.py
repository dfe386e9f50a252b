"""``nn._cuts``, the one row-edge formula, equals each of the three formulas
it replaced, copied here as oracles, at every row count up to 20,000: the
row blocks of the inference pass (1,024 rows), the row shares of a draw
(cut at multiples of 4) and the kernel-matrix blocks of an MMD (64 rows).
It also cuts every run of the inference pass into its chunks."""

import pytest

from cflow.diffcore import nn

ROWS = range(1, 20_001)


def block_edges(lo, hi, parts):
    """The row-block runs of ``forward_raw``'s hidden layers."""
    blocks = (hi - lo) // 1024
    parts = max(parts, 1)
    return [lo + 1024 * (blocks * k // parts) for k in range(parts)] + [hi]


def share_edges(n, parts):
    """The row shares of a draw."""
    quads = n // 4
    return [4 * (quads * k // parts) for k in range(parts)] + [n]


def kernel_edges(n, parts):
    """The kernel-sum runs of ``metrics.mmd2``."""
    blocks = n // 64
    return [64 * (blocks * k // parts) for k in range(parts)] + [n]


ORACLES = {1024: lambda n, parts: block_edges(0, n, parts), 4: share_edges, 64: kernel_edges}


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("unit", ORACLES, ids=lambda unit: f"unit-{unit}")
def test_cuts_is_each_formula_it_replaced(unit, parts):
    oracle = ORACLES[unit]
    assert [n for n in ROWS if nn._cuts(n, parts, unit) != oracle(n, parts)] == []


def chunks_of(rows):
    """Whether the chunk edges of a run of ``rows`` rows keep their rule:
    each falls on a multiple of ``CHUNK_ROWS``, every chunk but the last has
    that many rows and the last takes the remainder, so a chunk has one row
    only in a one-row run."""
    edges = nn._chunk_edges(rows)
    chunks = [hi - lo for lo, hi in zip(edges, edges[1:])]
    return (edges[0] == 0 and edges[-1] == rows and all(lo % nn.CHUNK_ROWS == 0 for lo in edges[:-1])
            and chunks[:-1] == [nn.CHUNK_ROWS] * (len(chunks) - 1)
            and min(rows, nn.CHUNK_ROWS) <= chunks[-1] < 2 * nn.CHUNK_ROWS)


def test_chunk_edges_cut_a_run_at_multiples_of_4_into_chunks_of_more_than_one_row():
    assert nn.CHUNK_ROWS % 4 == 0
    assert [rows for rows in ROWS if not chunks_of(rows)] == []
