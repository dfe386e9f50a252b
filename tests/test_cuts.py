"""``nn._cuts``, the one row-edge formula, equals each of the three formulas
it replaced, copied here as oracles, at every row count up to 20,000: the
row blocks of the inference pass (1,024 rows), the row shares of a draw
(cut at multiples of 4) and the kernel-matrix blocks of an MMD (64 rows)."""

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
