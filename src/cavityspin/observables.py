"""Spin observables of sector states, one kernel for both models.

A sector vector is laid out in blocks of (sorted spin masks x inner
dimension): a block fills rows ``offset .. offset + len(masks) * inner``,
spin mask major.  A :class:`~cavityspin.basis.SectorBasis` is one block with
inner dimension 1; a :class:`~cavityspin.jcmodel.JCBasis` has one block per
raised-spin count, whose inner dimension is its photon-configuration count.
Summing over the inner index traces the photons out, so the two-point spin
correlations of either model come from the same loops.
Pair correlations are never formed pair by pair: both sums come from the
lowering operator ``J-`` of every row and column, read off one table of
the raisings of the rows one raised spin below: per spin block of a full
basis, and at once for a whole class vector, whose rows each carry their
own raised-spin count.

A sector of either model solved on its orbit block is held as its classes
(:class:`~cavityspin.canonical.SymmetricSector`) with vectors on them.  The
one kernel, :func:`_pair_sums`, reads rows that stand for a number of
states each, so it takes a mask block and a class vector alike, and
:func:`multiplet_correlations` applies the one normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

import numpy as np

from .basis import enumerate_masks
from .canonical import SymmetricSector, symmetric_jc_sector, symmetric_sector


def block_segments(vectors: np.ndarray, basis) -> Iterator[tuple[object, np.ndarray]]:
    """``(block, seg)`` per block, ``seg`` shaped (masks, inner, columns)."""
    for blk in basis.blocks:
        n = len(blk.masks)
        seg = vectors[blk.offset : blk.offset + n * blk.inner]
        yield blk, seg.reshape(n, blk.inner, vectors.shape[1])


@dataclass(frozen=True)
class CorrelationResult:
    """Row/column-partner vs unshared-pair correlation averages.

    ``cluster_truncated`` is always False: both solver paths return every
    copy of the ground level.  It stays for callers that read it.
    """

    sigma_nn: float
    sigma_nnn: float
    ratio: Optional[float]
    defined: bool
    multiplet_size: int = 1
    cluster_truncated: bool = False


def _pair_sums(geometry, n, u, sizes, row_of, lower, lower_sizes, lower_modes=None):
    """``(<A>, sum over ordered pairs s != t)`` of vectors whose row i,
    ``u[i]`` of shape (inner, columns), stands for ``sizes[i]`` states of
    ``n[i]`` raised spins (a scalar stands for every row); ``row_of`` maps
    states to rows, and ``lower``, ``lower_sizes`` are the rows one raised
    spin below.  Jaynes-Cummings class rows carry photon counts, which
    raisings keep and ``row_of`` takes second (``lower_modes``).  The
    raisings of every lower row, one per site, are ranked once; a site
    already raised reads a zero row."""
    bits = (np.int64(1) << np.arange(geometry.n_sites, dtype=np.int64))[:, None]
    fresh = (bits & lower) == 0
    table = np.full(fresh.shape, len(u))  # row of every raising, by site
    modes = () if lower_modes is None else (lower_modes[np.nonzero(fresh)[1]],)
    table[fresh] = row_of((bits | lower)[fresh], *modes)  # the full table is freed first
    weight = np.multiply(n, sizes, dtype=float)  # n * size may pass int64
    norm = float((np.reshape(weight, (-1, 1, 1)) * u**2).sum())  # <n>, summed over columns
    u = np.concatenate([u, np.zeros_like(u[:1])])

    def lowered(sites):  # J- v of the line through these sites
        return u[table[sites]].sum(axis=0)

    def square(w):  # ||w||^2 over the lower rows
        return float((np.reshape(lower_sizes, (-1, 1, 1)) * w**2).sum())

    rows = [lowered(geometry.row_sites(r)) for r in range(geometry.ly)]
    cols = (lowered(geometry.col_sites(c)) for c in range(geometry.lx))  # one at a time
    hops = sum(map(square, rows)) + sum(map(square, cols)) - 2 * norm
    return hops, square(sum(rows)) - norm


def _levels(multiplet: np.ndarray, basis) -> Iterator[tuple]:
    """The :func:`_pair_sums` arguments of a sector vector.  A class vector
    is one set: all its classes, each of its own raised-spin count, lower
    into all classes of the sector one excitation below, with the same
    photons in a Jaynes-Cummings sector.  A full basis gives one set per
    spin block with a raised spin (a block without one has neither sum)."""
    if isinstance(basis, SymmetricSector):
        if basis.n:
            grow = symmetric_sector if basis.modes is None else symmetric_jc_sector
            low = grow(basis.geometry, basis.n - 1)
            u = (multiplet / np.sqrt(basis.sizes)[:, None])[:, None]
            yield (basis.spins, u, basis.sizes, basis.classify,
                   low.representatives, low.sizes, low.modes)
    else:
        for blk, seg in block_segments(multiplet, basis):
            n_exc = int(blk.masks[0]).bit_count()
            if n_exc:
                lower = enumerate_masks(basis.geometry.n_sites, n_exc - 1)
                yield n_exc, seg, 1, blk.masks.searchsorted, lower, 1


def multiplet_correlations(spectrum, basis) -> CorrelationResult:
    """Average NNN/NN correlation ratio of the ground multiplet.

    NN pairs share a row or column (the pairs the interaction couples);
    NNN pairs share neither.  In a fixed sector single-spin coherences
    vanish, so raw and connected correlators coincide, and for real vectors
    ``<sigma+_s sigma-_t>`` is symmetric in s and t.  Two identities give
    the pair sums without visiting pairs:

    * the NN sum is half of ``<A> = sum over lines of ||J- v||^2 - 2n``,
      A the 0/1 hop matrix: off its diagonal ``J+ J-`` is a line's hops;
    * the sum over all ordered pairs ``s != t`` is ``||S- v||^2 - n``,
      with ``S-`` the sum of the row lowerings.

    Each lowering maps a block onto the masks of one raised spin fewer at
    the same inner index.  On a class vector a row is a class, weighted by
    its size: a row and column permutation permutes the lines, so ``S- v``
    and ``sum |J- v|^2`` of a representative stand for every member's.

    An array with no pair of a kind averages to 0.0.  Undefined (ratio
    ``None``) when the NN average is zero up to round-off (``|sigma_nn| <=
    1e-12``, against ``sigma <= n/N <= 1``), as in the empty and the fully
    excited spin sector.
    """
    geometry = basis.geometry
    multiplet = spectrum.eigenvectors
    sums = [_pair_sums(geometry, *level) for level in _levels(multiplet, basis)]
    hops, ordered = sum(h for h, _ in sums), sum(o for _, o in sums)
    lx, ly = geometry.lx, geometry.ly
    n_nn = ly * comb(lx, 2) + lx * comb(ly, 2)
    n_nnn = 2 * comb(lx, 2) * comb(ly, 2)
    scale = 2.0 * multiplet.shape[1]  # ordered sums to unordered pairs, per column
    sigma_nn = hops / (scale * n_nn) if n_nn else 0.0
    sigma_nnn = (ordered - hops) / (scale * n_nnn) if n_nnn else 0.0
    ratio = sigma_nnn / sigma_nn if abs(sigma_nn) > 1e-12 else None
    return CorrelationResult(
        sigma_nn=sigma_nn,
        sigma_nnn=sigma_nnn,
        ratio=ratio,
        defined=ratio is not None,
        multiplet_size=multiplet.shape[1],
    )
