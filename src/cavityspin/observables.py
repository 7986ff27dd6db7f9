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
:class:`~cavityspin.canonical.SymmetricSector`, with vectors on its
classes; the same two sums are then block expectations
(``SymmetricSector.pair_sums``).  :func:`multiplet_correlations` picks the
representation and applies the one normalization to either, so the models
hand over whatever basis their solve returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Optional

import numpy as np

from .basis import enumerate_masks, line_moves
from .canonical import SymmetricSector


def block_segments(vectors: np.ndarray, basis) -> Iterator[tuple[object, np.ndarray]]:
    """``(block, seg)`` per block, ``seg`` shaped (masks, inner, columns).

    A 1-D vector counts as one column.
    """
    v = vectors[:, None] if vectors.ndim == 1 else vectors
    for blk in basis.blocks:
        n = len(blk.masks)
        yield blk, v[blk.offset : blk.offset + n * blk.inner].reshape(n, blk.inner, v.shape[1])


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


def _vector_pair_sums(multiplet: np.ndarray, basis) -> tuple[float, float]:
    """``(<A>, sum over ordered pairs s != t)`` of sector vectors laid out
    in mask blocks, summed over the columns."""
    geometry = basis.geometry
    n_sites = geometry.n_sites
    hops = 0.0  # <A>, A the 0/1 matrix of row and column moves
    ordered = 0.0  # sum over ordered pairs s != t
    for blk, seg in block_segments(multiplet, basis):
        for kind in ("row", "col"):
            src, dst = line_moves(geometry, blk.masks, kind)
            hops += float((seg[src] * seg[np.searchsorted(blk.masks, dst)]).sum())
        n_exc = int(blk.masks[0]).bit_count()
        if n_exc == 0:
            continue
        lowered = enumerate_masks(n_sites, n_exc - 1)
        image = np.zeros((len(lowered),) + seg.shape[1:])
        for s in range(n_sites):
            sel = np.nonzero((blk.masks >> s) & 1)[0]
            lower = blk.masks[sel] ^ np.int64(1 << s)  # one image per s: no collisions
            image[np.searchsorted(lowered, lower)] += seg[sel]
        ordered += float((image**2).sum() - n_exc * (seg**2).sum())
    return hops, ordered


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

    On a :class:`~cavityspin.canonical.SymmetricSector` the two sums are the
    block expectations of ``SymmetricSector.pair_sums`` instead.

    An array with no pair of a kind averages to 0.0.  Undefined (ratio
    ``None``) when the NN average is zero up to round-off (``|sigma_nn| <=
    1e-12``, against ``sigma <= n/N <= 1``), as in the empty and the fully
    excited spin sector.
    """
    geometry = basis.geometry
    multiplet = spectrum.eigenvectors
    if isinstance(basis, SymmetricSector):
        hops, ordered = basis.pair_sums(multiplet)
    else:
        hops, ordered = _vector_pair_sums(multiplet, basis)
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
