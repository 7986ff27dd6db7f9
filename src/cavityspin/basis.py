"""Fixed-excitation-number occupation bases over bitmask-encoded spin states.

A sector with ``n_exc`` raised spins out of ``n_sites`` is the set of all
bitmasks of that Hamming weight, stored in ascending integer order.  Ranking
uses the combinatorial number system: for set bit positions
``p_1 < p_2 < ... < p_k`` the rank is ``sum_j C(p_j, j)``, which is exactly
the ascending-order index.  Bulk lookups during matrix assembly go through a
vectorized binary search on the sorted state table instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

import numpy as np

from .geometry import ArrayGeometry

MAX_SECTOR_DIM = 20_000_000
MAX_SITES = 62  # states held in int64 bitmasks


def sector_dimension(n_sites: int, n_exc: int) -> int:
    return comb(n_sites, n_exc)


def enumerate_masks(n_sites: int, n_exc: int) -> np.ndarray:
    """All weight-``n_exc`` bitmasks on ``n_sites`` bits, ascending.

    Uses the constant-time successor trick (lowest set block is advanced and
    compacted) so the table is produced already sorted.
    """
    if not 0 <= n_exc <= n_sites:
        raise ValueError(f"n_exc={n_exc} outside [0, {n_sites}]")
    if n_sites > MAX_SITES:
        raise ValueError(f"n_sites={n_sites} exceeds bitmask limit {MAX_SITES}")
    dim = comb(n_sites, n_exc)
    if dim > MAX_SECTOR_DIM:
        raise ValueError(f"sector dimension {dim} exceeds guard {MAX_SECTOR_DIM}")
    out = np.empty(dim, dtype=np.int64)
    if n_exc == 0:
        out[0] = 0
        return out
    v = (1 << n_exc) - 1
    for i in range(dim):
        out[i] = v
        low = v & -v
        carry = v + low
        v = carry | (((v ^ carry) >> 2) // low)
    return out


class MaskBlock(NamedTuple):
    """Sorted spin masks times an inner dimension, from row ``offset`` on."""

    masks: np.ndarray
    inner: int
    offset: int


@dataclass
class SectorBasis:
    """Ordered basis of a fixed-excitation sector on an array geometry."""

    geometry: ArrayGeometry
    n_exc: int
    states: np.ndarray = field(repr=False)

    def __init__(self, geometry: ArrayGeometry, n_exc: int):
        self.geometry = geometry
        self.n_exc = n_exc
        self.states = enumerate_masks(geometry.n_sites, n_exc)
        self._comb = _comb_table(geometry.n_sites, n_exc)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def blocks(self) -> tuple[MaskBlock]:
        """The whole sector as one block of inner dimension 1."""
        return (MaskBlock(self.states, 1, 0),)

    def rank(self, mask: int) -> int:
        """Index of a bitmask via the combinatorial number system."""
        if mask < 0 or int(mask).bit_count() != self.n_exc:
            raise ValueError(f"mask {mask:#x} is not a weight-{self.n_exc} state")
        r = 0
        j = 1
        m = int(mask)
        while m:
            p = (m & -m).bit_length() - 1
            r += self._comb[p, j]
            m &= m - 1
            j += 1
        return int(r)

    def unrank(self, index: int) -> int:
        """Bitmask at a given index, inverse of :meth:`rank`."""
        if not 0 <= index < self.dim:
            raise IndexError(index)
        r = int(index)
        mask = 0
        for j in range(self.n_exc, 0, -1):
            p = j - 1
            while p + 1 <= self.geometry.n_sites - 1 and self._comb[p + 1, j] <= r:
                p += 1
            mask |= 1 << p
            r -= self._comb[p, j]
        return mask

    def bulk_rank(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized rank of many masks (binary search on the state table)."""
        idx = np.searchsorted(self.states, masks)
        if np.any(idx >= self.dim) or np.any(self.states[idx] != masks):
            raise ValueError("mask outside this sector")
        return idx


def _comb_table(n: int, k: int) -> np.ndarray:
    """Pascal table C[p, j] for p <= n, j <= k, as int64."""
    table = np.zeros((n + 1, k + 1), dtype=np.int64)
    table[:, 0] = 1
    for p in range(1, n + 1):
        for j in range(1, k + 1):
            table[p, j] = table[p - 1, j] + table[p - 1, j - 1]
    return table
