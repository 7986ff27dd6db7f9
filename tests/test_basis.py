"""Fixed-weight bitmask bases: enumeration, ranking, occupations."""

import math

import numpy as np
import pytest

import cavityspin.basis
from cavityspin.basis import SectorBasis, enumerate_masks
from cavityspin.geometry import ArrayGeometry
from oracles import successor_masks


def test_enumeration_is_sorted_complete_and_weighted():
    for n, k in [(1, 0), (1, 1), (5, 2), (6, 3), (9, 4), (10, 0), (10, 10)]:
        masks = enumerate_masks(n, k)
        assert len(masks) == math.comb(n, k)
        assert np.all(np.diff(masks) > 0) or len(masks) == 1
        assert all(int(m).bit_count() == k for m in masks)
        # brute-force oracle: same set as filtering all integers by weight
        ref = [m for m in range(1 << n) if bin(m).count("1") == k]
        assert list(masks) == ref


def test_enumeration_matches_the_successor_loop():
    for n in range(17):
        for k in range(n + 1):
            assert np.array_equal(enumerate_masks(n, k), successor_masks(n, k)), (n, k)
    # 5x4 n=10: 184 756 masks, the largest sector the benchmark enumerates
    assert np.array_equal(enumerate_masks(20, 10), successor_masks(20, 10))


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_masks(4, 5)
    with pytest.raises(ValueError):
        enumerate_masks(4, -1)
    with pytest.raises(ValueError):
        enumerate_masks(63, 1)


def test_rank_is_table_index():
    basis = SectorBasis(ArrayGeometry(3, 3), 4)
    assert np.array_equal(basis.bulk_rank(basis.states), np.arange(basis.dim))
    for i, m in enumerate(basis.states):
        assert basis.bulk_rank(np.asarray([int(m)]))[0] == i
    with pytest.raises(ValueError):
        basis.bulk_rank(np.asarray([0b111]))  # wrong weight


@pytest.mark.parametrize(
    "n_exc, mask",
    [(1, 1 << 4), (2, 0b10001), (1, 1 << 5), (1, 1 << 70), (1, -1)],
)
def test_rank_rejects_masks_outside_the_sector(n_exc, mask):
    # 2x2 sites are bits 0..3: the right weight on a higher bit is no state
    # (a mask past 64 bits arrives as an object array)
    basis = SectorBasis(ArrayGeometry(2, 2), n_exc)
    with pytest.raises(ValueError):
        basis.bulk_rank(np.asarray([mask]))


def test_bulk_rank_matches_scalar_rank():
    rng = np.random.default_rng(3)
    basis = SectorBasis(ArrayGeometry(4, 3), 5)
    idx = rng.permutation(basis.dim)[:200]
    masks = basis.states[idx]
    assert np.array_equal(basis.bulk_rank(masks), idx)
    # one mask at a time, as Python ints, against a linear scan of the table
    table = basis.states.tolist()
    assert [int(basis.bulk_rank(np.asarray([int(m)]))[0]) for m in masks] == [
        table.index(int(m)) for m in masks
    ]
    with pytest.raises(ValueError):
        basis.bulk_rank(np.array([0b11, 0b101], dtype=np.int64))


def test_sector_tables_are_refused_past_the_row_budget(monkeypatch):
    # C(10, 5) = 252 states; no numpy call is reached before the refusal
    monkeypatch.setattr(cavityspin.basis, "MAX_ROWS", 251)
    monkeypatch.setattr(cavityspin.basis, "np", None)
    with pytest.raises(ValueError, match="^sector table of 252 rows exceeds the budget 251$"):
        enumerate_masks(10, 5)
