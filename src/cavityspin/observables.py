"""Spin observables of sector states, one kernel for both models.

A sector vector is laid out in blocks of (sorted spin masks x inner
dimension): a block fills rows ``offset .. offset + len(masks) * inner``,
spin mask major.  A :class:`~cavityspin.basis.SectorBasis` is one block with
inner dimension 1; a :class:`~cavityspin.jcmodel.JCBasis` has one block per
raised-spin count, whose inner dimension is its photon-configuration count.
Summing over the inner index traces the photons out, so the two-point spin
correlations of either model come from the same loops.
Pair correlations are never formed pair by pair: the shared-line sum comes
from the moves of the hop rule (``basis.line_moves``) and the all-pairs sum
from the lowering operator ``S- = sum_s sigma-_s``.

An attractive spin sector solved on its orbit block is held as a
:class:`~cavityspin.canonical.SymmetricSector`, with vectors ``c`` on its
classes (amplitude ``c_i / sqrt(s_i)`` on every member of class i).  The
one kernel, :func:`_pair_sums`, reads rows that stand for a number of
states each, so it takes a mask block and a class vector alike, and
:func:`multiplet_correlations` applies the one normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

import numpy as np

from .basis import enumerate_masks, line_moves
from .canonical import SymmetricSector, symmetric_sector


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


def _pair_sums(geometry, masks, u, sizes, rank, lower, lower_sizes) -> tuple[float, float]:
    """``(<A>, sum over ordered pairs s != t)`` of vectors whose row i,
    ``u[i]`` of shape (inner, columns), stands for ``sizes[i]`` states of
    mask ``masks[i]`` (a scalar size stands for every row); ``rank`` maps
    masks of the level to rows, and ``lower``, ``lower_sizes`` are the rows
    of the level one raised spin below.  ``S- v`` at a lower row sums ``u``
    over its raisings, which come contiguous, ``N - n + 1`` per lower mask.
    They are ranked bit-major and the ranks put back in that order: over
    sorted lower masks each bit's raisings ascend, which ``searchsorted``
    ranks in about half the time of the interleaved order."""
    weighted = u * np.reshape(sizes, (-1, 1, 1))
    hops = 0.0  # <A>, A the 0/1 matrix of row and column moves
    for kind in ("row", "col"):  # one rank call per kind keeps the peak low
        src, dst = line_moves(geometry, masks, kind)
        hops += float((weighted[src] * u[rank(dst)]).sum())
    raised = (np.int64(1) << np.arange(geometry.n_sites, dtype=np.int64))[:, None] | lower
    fresh = raised != lower
    ranks = rank(raised[fresh])
    rows = np.empty(raised.shape, dtype=ranks.dtype)
    rows[fresh] = ranks
    raisings = u[rows.T[fresh.T]]
    lowered = raisings.reshape((len(lower), -1) + u.shape[1:]).sum(axis=1)  # S- v
    ordered = (np.reshape(lower_sizes, (-1, 1, 1)) * lowered**2).sum()
    return hops, float(ordered - int(masks[0]).bit_count() * (weighted * u).sum())


def _levels(multiplet: np.ndarray, basis) -> Iterator[tuple]:
    """The :func:`_pair_sums` arguments of every spin level with a raised
    spin (a level without one has neither sum)."""
    if isinstance(basis, SymmetricSector):
        if basis.n_exc:
            low, sizes = symmetric_sector(basis.geometry, basis.n_exc - 1), basis.sizes
            u = (multiplet / np.sqrt(sizes)[:, None])[:, None]
            yield basis.representatives, u, sizes, basis.classify, low.representatives, low.sizes
        return
    for blk, seg in block_segments(multiplet, basis):
        n_exc = int(blk.masks[0]).bit_count()
        if n_exc:
            lower = enumerate_masks(basis.geometry.n_sites, n_exc - 1)
            yield blk.masks, seg, 1, blk.masks.searchsorted, lower, 1


def multiplet_correlations(spectrum, basis) -> CorrelationResult:
    """Average NNN/NN correlation ratio of the ground multiplet.

    NN pairs share a row or column (the pairs the interaction couples);
    NNN pairs share neither.  In a fixed sector single-spin coherences
    vanish, so raw and connected correlators coincide, and for real vectors
    ``<sigma+_s sigma-_t>`` is symmetric in s and t.  Two identities give
    the pair sums without visiting pairs:

    * the NN sum is half the expectation of the 0/1 hop matrix, one term
      per move of :func:`~cavityspin.basis.line_moves`;
    * the sum over all ordered pairs ``s != t`` is ``||S- v||^2 - n``,
      with ``S-`` mapping each block onto the masks of one raised spin
      fewer at the same inner index.

    On a :class:`~cavityspin.canonical.SymmetricSector` a row is a class,
    weighted by its size: the moves and ``S-`` commute with every site
    permutation, so those of a representative stand for every member's.

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
