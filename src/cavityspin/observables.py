"""Spin observables of sector states, one kernel for both models.

A sector vector is laid out in blocks of (sorted spin masks x inner
dimension): a block fills rows ``offset .. offset + len(masks) * inner``,
spin mask major.  A :class:`~cavityspin.basis.SectorBasis` is one block with
inner dimension 1; a :class:`~cavityspin.jcmodel.JCBasis` has one block per
raised-spin count, whose inner dimension is its photon-configuration count.
Summing over the inner index traces the photons out, so occupations and
two-point spin correlations of either model come from the same loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np


def block_segments(vectors: np.ndarray, basis) -> Iterator[tuple[object, np.ndarray]]:
    """``(block, seg)`` per block, ``seg`` shaped (masks, inner, columns).

    A 1-D vector counts as one column.
    """
    v = vectors[:, None] if vectors.ndim == 1 else vectors
    for blk in basis.blocks:
        n = len(blk.masks)
        yield blk, v[blk.offset : blk.offset + n * blk.inner].reshape(n, blk.inner, v.shape[1])


def site_occupations(vectors: np.ndarray, basis) -> np.ndarray:
    """Per-site excitation probability, averaged over the given columns."""
    n_sites = basis.geometry.n_sites
    occ = np.zeros(n_sites)
    for blk, seg in block_segments(vectors, basis):
        w_mask = (seg**2).sum(axis=(1, 2)) / seg.shape[2]  # weight per spin mask
        for s in range(n_sites):
            occ[s] += w_mask[(blk.masks >> s) & 1 == 1].sum()
    return occ


def pair_correlations(vectors: np.ndarray, basis) -> np.ndarray:
    """Matrix ``C[s, t] = <sigma^+_s sigma^-_t>`` averaged over given vectors.

    ``vectors`` holds an orthonormal (near-)degenerate multiplet as columns;
    the average is the normalized projector trace, so the result does not
    depend on the basis chosen inside the multiplet.  Diagonal entries are
    site occupations.
    """
    n_sites = basis.geometry.n_sites
    c = np.diag(site_occupations(vectors, basis))
    for blk, seg in block_segments(vectors, basis):
        masks = blk.masks
        for s in range(n_sites):
            for t in range(n_sites):
                if s == t:
                    continue
                sel = np.nonzero(((masks >> t) & 1 == 1) & ((masks >> s) & 1 == 0))[0]
                if len(sel) == 0:
                    continue
                flip = np.int64((1 << s) | (1 << t))
                partner = np.searchsorted(masks, masks[sel] ^ flip)
                c[s, t] += float((seg[partner] * seg[sel]).sum() / seg.shape[2])
    return c


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


def multiplet_correlations(spectrum, basis) -> CorrelationResult:
    """Average NNN/NN correlation ratio of the ground multiplet.

    NN pairs share a row or column (the pairs the interaction couples);
    NNN pairs share neither.  In a fixed sector single-spin coherences
    vanish, so raw and connected correlators coincide.  Undefined (ratio
    ``None``) when the NN average is zero, as in the empty and the fully
    excited spin sector.
    """
    geometry = basis.geometry
    multiplet = spectrum.ground_multiplet()
    c = pair_correlations(multiplet, basis)
    sigma_nn, sigma_nnn = (
        float(np.mean([c[s, t] for s, t in pairs])) if pairs else 0.0
        for pairs in (geometry.nn_pairs(), geometry.nnn_pairs())
    )
    ratio = sigma_nnn / sigma_nn if sigma_nn != 0.0 else None
    return CorrelationResult(
        sigma_nn=sigma_nn,
        sigma_nnn=sigma_nnn,
        ratio=ratio,
        defined=ratio is not None,
        multiplet_size=multiplet.shape[1],
    )
