"""Fixed-excitation-number occupation bases over bitmask-encoded spin states.

A sector with ``n_exc`` raised spins out of ``n_sites`` is the ascending
table of all bitmasks of that weight; a state's rank is its index there,
found by binary search, and a mask outside the sector is an error.  The one
hop rule, :func:`line_moves`, builds spin sector matrices.  Every route of
both models stays within the row budget :data:`MAX_ROWS` (:func:`check_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import NamedTuple

import numpy as np

from .geometry import ArrayGeometry

# The row budget of every route: matrix entries, class growth candidates,
# orbit block entries or table states, each counted in closed form before
# it is allocated.  ``scripts/solver_sweep.py rows`` (fresh processes, 2
# cores), bytes per row above a bare process: spin matrix 98-100, JC matrix
# 51-67, spin growth 76-187 (rising with the longer side), JC growth 248-250,
# spin block 74-87, JC block 129-141, mask table 18-21, orbit table 104-136.
# So no route passes 2.5 GB within the budget; 4 GiB would take 430 B a row.
MAX_ROWS = 10_000_000
MAX_SITES = 62  # states held in int64 bitmasks


def check_rows(rows: int, what: str) -> None:
    """Refuse a route that would hold more than ``MAX_ROWS`` rows."""
    if rows > MAX_ROWS:
        raise ValueError(f"{what} of {rows} rows exceeds the budget {MAX_ROWS}")


def enumerate_masks(n_sites: int, n_exc: int) -> np.ndarray:
    """All weight-``n_exc`` bitmasks on ``n_sites`` bits, ascending.

    Built bit by bit: the weight-k table on n bits is the weight-k table on
    n - 1 bits (top bit clear) followed by the weight-(k-1) table on n - 1
    bits with the top bit set, so every table comes out already sorted.
    """
    if not 0 <= n_exc <= n_sites:
        raise ValueError(f"n_exc={n_exc} outside [0, {n_sites}]")
    if n_sites > MAX_SITES:
        raise ValueError(f"n_sites={n_sites} exceeds bitmask limit {MAX_SITES}")
    check_rows(comb(n_sites, n_exc), "sector table")
    # weight-k tables on the bits placed so far, for each k that can still
    # reach n_exc with the bits left
    empty = np.empty(0, dtype=np.int64)
    tables = {0: np.zeros(1, dtype=np.int64)}
    for n in range(n_sites):
        top = np.int64(1) << n
        low = max(0, n_exc - (n_sites - n - 1))
        tables = {
            k: np.concatenate([tables.get(k, empty), tables.get(k - 1, empty) | top])
            for k in range(low, min(n + 1, n_exc) + 1)
        }
    return tables[n_exc]


def line_moves(
    geometry: ArrayGeometry, states: np.ndarray, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Every single-excitation move along the rows (``kind="row"``) or the
    columns (``kind="col"``) out of the given configurations.

    Returns the index in ``states`` of each move's source and the mask it
    moves to: one raised spin trades places with a lowered one on the same
    line.  This is the hop rule of the model; every spin sector matrix and
    orbit block uses it.
    """
    src = [np.empty(0, dtype=np.int64)]
    dst = [np.empty(0, dtype=np.int64)]
    for s, t in ((s, t) for s, t, line in geometry.line_pairs() if line == kind):
        sel = np.nonzero(((states >> s) & 1) != ((states >> t) & 1))[0]
        src.append(sel)
        dst.append(states[sel] ^ np.int64((1 << s) | (1 << t)))
    return np.concatenate(src), np.concatenate(dst)


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

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def blocks(self) -> tuple[MaskBlock]:
        """The whole sector as one block of inner dimension 1."""
        return (MaskBlock(self.states, 1, 0),)

    def bulk_rank(self, masks: np.ndarray) -> np.ndarray:
        """Vectorized rank of many masks (binary search on the state table)."""
        idx = np.searchsorted(self.states, masks)
        if np.any(idx >= self.dim) or np.any(self.states[idx] != masks):
            raise ValueError("mask outside this sector")
        return idx

