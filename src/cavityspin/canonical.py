"""Orbit classes of a spin sector from canonical codes, with no sector table.

The row x column group S_Ly x S_Lx acts on the spin configurations of an
Ly x Lx array, seen as 0/1 matrices.  A configuration's canonical code
(:func:`canonical_codes`) is shared by exactly the members of its orbit, so
codes name the classes without labelling a state table: the representatives
of a sector grow one raised spin at a time from the empty array, in the
spirit of McKay's isomorph-free generation (*J. Algorithms*, 1998), and each
class size follows from the permutations that fix its code.  A
:class:`SymmetricSector` holds one representative, the code and the size of
every class.  From entries out of the representative rows it builds orbit
blocks with ``symmetry.orbit_block``: the Hamiltonian block of the
attractive route of ``spinmodel`` and the blocks of the two pair sums of
the correlations, so neither the solve nor the correlations of such a
sector hold a vector of its C(N, n) states.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb, factorial, prod

import numpy as np

from .basis import MAX_SITES, line_moves, pair_moves
from .geometry import ArrayGeometry
from .symmetry import orbit_block, site_images


def _line_sites(geometry: ArrayGeometry) -> np.ndarray:
    """Row j holds the sites of line j of the longer side (the columns of
    a wide array, the rows of a tall one), one per position along the
    shorter side: bit i of the line's code is the spin on site [j, i]."""
    if geometry.ly <= geometry.lx:
        return np.array([geometry.col_sites(c) for c in range(geometry.lx)])
    return np.array([geometry.row_sites(r) for r in range(geometry.ly)])


def canonical_codes(
    geometry: ArrayGeometry, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical code of every mask, and how many permutations of the
    shorter side reach it.

    Under a permutation p of the shorter side the line codes (see
    :func:`_line_sites`) are permuted bitwise, sorted and packed first line
    highest; the code is the minimum over every p.  Sorting absorbs the
    permutations of the longer side, so two masks share a code exactly when
    a row x column permutation maps one onto the other.  A code takes the
    ``n_sites <= basis.MAX_SITES`` bits of an int64.
    """
    width = min(geometry.lx, geometry.ly)
    lines = [
        sum(((masks >> s) & 1) << i for i, s in enumerate(sites))
        for sites in _line_sites(geometry)
    ]
    values = np.arange(1 << width, dtype=np.int64)
    best = np.full(len(masks), np.iinfo(np.int64).max)
    hits = np.zeros(len(masks), dtype=np.int64)
    for perm in permutations(range(width)):
        table = site_images(perm, values)
        col = [table[line] for line in lines]
        for i in range(1, len(col)):  # an insertion sorting network
            for j in range(i, 0, -1):
                col[j - 1], col[j] = np.minimum(col[j - 1], col[j]), np.maximum(col[j - 1], col[j])
        code = col[0]
        for c in col[1:]:
            code = (code << width) | c
        hits = np.where(code < best, 0, hits) + (code <= best)
        best = np.minimum(best, code)
    return best, hits


@dataclass(frozen=True)
class SymmetricSector:
    """A spin sector held as its S_Ly x S_Lx orbit classes: a
    representative mask, the canonical code and the size of every class,
    ascending by code.

    A vector ``c`` on the classes stands for the sector vector with
    amplitude ``c_i / sqrt(s_i)`` on every member of class i.
    """

    geometry: ArrayGeometry
    n_exc: int
    representatives: np.ndarray = field(repr=False)
    codes: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        """The sector dimension C(N, n)."""
        return comb(self.geometry.n_sites, self.n_exc)

    def classify(self, masks: np.ndarray) -> np.ndarray:
        """Class index of every mask of the sector, found by its code."""
        codes, _ = canonical_codes(self.geometry, masks)
        idx = np.searchsorted(self.codes, codes)
        if np.any(idx >= len(self.codes)) or np.any(self.codes[idx] != codes):
            raise ValueError("mask outside this sector")
        return idx

    def block(self, src: np.ndarray, dst: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """The orbit block of an operator from its entries out of the
        representative rows: the class ``src[t]`` of each entry's row, the
        mask ``dst[t]`` of its column and its value ``vals[t]``."""
        return orbit_block(self.sizes, src, self.classify(dst), vals)

    def pair_sums(self, vectors: np.ndarray) -> tuple[float, float]:
        """The two pair sums of the correlations of class-space vectors,
        summed over the columns: ``c^T B_hop c`` with ``B_hop`` the block of
        the 0/1 moves of ``basis.line_moves``, and the sum over ordered
        pairs ``s != t`` of ``<sigma+_t sigma-_s>``, ``c^T B_all c`` with
        ``B_all`` the block of every single-excitation move.  Both operators
        commute with every site permutation."""
        geometry, reps = self.geometry, self.representatives
        moves = [line_moves(geometry, reps, kind) for kind in ("row", "col")]
        on_lines = sum(len(src) for src, _ in moves)
        shared = {(s, t) for s, t, _ in geometry.line_pairs()}
        pairs = combinations(range(geometry.n_sites), 2)
        moves.append(pair_moves(reps, (p for p in pairs if p not in shared)))
        src = np.concatenate([m[0] for m in moves])
        dst = self.classify(np.concatenate([m[1] for m in moves]))
        ones = np.ones(len(src))
        b_hop = orbit_block(self.sizes, src[:on_lines], dst[:on_lines], ones[:on_lines])
        b_all = orbit_block(self.sizes, src, dst, ones)
        return (
            float(np.sum(vectors * (b_hop @ vectors))),
            float(np.sum(vectors * (b_all @ vectors))),
        )


def symmetric_sector(geometry: ArrayGeometry, n_exc: int) -> SymmetricSector:
    """The orbit classes of a spin sector, with no sector table.

    The representatives of sector n are the children (one raised spin
    added) of those of sector n - 1, kept unique by code, from the empty
    array up to min(n, N - n), and complemented past N / 2.  A class has
    size ``|G| / |Stab|``: ``|Stab|`` is the number of permutations of the
    shorter side that reach its code times ``prod m_c!`` over the counts
    ``m_c`` of equal lines.  The sizes are checked against the group order
    and the sector dimension in Python integers (21! > 2**63).
    """
    n_sites = geometry.n_sites
    if not 0 <= n_exc <= n_sites:
        raise ValueError(f"n_exc={n_exc} outside [0, {n_sites}]")
    if n_sites > MAX_SITES:
        raise ValueError(f"n_sites={n_sites} exceeds bitmask limit {MAX_SITES}")
    bits = np.int64(1) << np.arange(n_sites, dtype=np.int64)
    reps = np.zeros(1, dtype=np.int64)
    for _ in range(min(n_exc, n_sites - n_exc)):
        children = (reps[:, None] | bits)[(reps[:, None] & bits) == 0]
        codes = canonical_codes(geometry, children)[0]
        order = np.argsort(codes)
        codes = codes[order]
        # the first child of every code; np.unique's hash path costs peak RSS
        reps = children[order[np.r_[True, codes[1:] != codes[:-1]]]]
    if 2 * n_exc > n_sites:
        reps = reps ^ ((np.int64(1) << n_sites) - 1)
    codes, hits = canonical_codes(geometry, reps)
    order = np.argsort(codes)
    width, n_lines = min(geometry.lx, geometry.ly), max(geometry.lx, geometry.ly)
    group_order = factorial(geometry.lx) * factorial(geometry.ly)
    sizes = []
    for code, reached in zip(codes[order].tolist(), hits[order].tolist()):
        lines = Counter((code >> (width * j)) & ((1 << width) - 1) for j in range(n_lines))
        size, rest = divmod(group_order, reached * prod(map(factorial, lines.values())))
        if rest:
            raise ArithmeticError("class size does not divide group order")
        sizes.append(size)
    if sum(sizes) != comb(n_sites, n_exc):
        raise ArithmeticError("class sizes do not add up to the sector dimension")
    return SymmetricSector(
        geometry, n_exc, reps[order], codes[order], np.array(sizes, dtype=np.int64)
    )
