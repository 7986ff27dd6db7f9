"""Sparse operator container and low-lying eigensolvers.

An operator is its ``(rows, cols, vals)`` entries and its dimension.  Small
problems (dimension <= DENSE_CUTOFF) fill a numpy array from the entries and
go through dense ``eigh``.  Larger ones use ARPACK's implicitly restarted
Lanczos (``scipy.sparse.linalg.eigsh``) on the CSR ``matrix``, built on first
use, in deflated rounds until the lowest degeneracy cluster is provably
closed.  A solve returns that cluster and nothing else: every copy of the
lowest level on both paths, with the residual norm ``|H v - E v|`` of every
pair; the Lanczos path returns that of an operator with no nonzero
off-diagonal entry exactly, a unit vector and residual 0 per copy.

Only the Lanczos path and ``nnz`` import scipy, so a process whose solves
are all dense (and one that solves nothing) runs on numpy alone.  The
first Lanczos solve of a process pays for the whole ``scipy.sparse``
import.

The cutoff comes from ``scripts/solver_sweep.py`` on 2 cores.  In one
process (``timing``: spin sectors at attractive and frustrated couplings and
JC sectors of dimension 66-3432) Lanczos is faster in every case from
dimension 455 up (3432: 2.9 s dense, 0.008-0.05 s Lanczos), by at most
12 ms per solve below 792.  A fresh CLI process solving one sector
(``cold``) pays the scipy import only on Lanczos: that is 0.24-0.30 s slower
at dimension 495-1001 and 0.09 s slower at 1365, and faster from 1820 up
(0.67 s against 0.98 s dense).

Attractive spin sectors and Jaynes-Cummings sectors with scalar detunings
(and the critical-coupling pencils of the latter) past the route floor
``canonical.FLOOR`` are held as a ``canonical.SymmetricSector`` and reach
this module as its small orbit-sum block, through ``canonical.block_ground``:
the operator is the block's entries, never a k x k array (k classes: 159 for
the 184 756 states of spin 5x4 n=10, 114 for the 2016 of JC 3x3 n_total=4),
usually far below the cutoff; such a sector never becomes a matrix or a
sector-sized vector.  JC sectors that stay whole (per-line detunings, a
truncated photon cutoff) close after one Lanczos round: their ground level
is simple by Perron-Frobenius up to a +-1 gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DENSE_CUTOFF = 700
RESIDUAL_TOL = 1e-10
DEGENERACY_RTOL = 1e-8
CLOSING_ROUNDS = 2


@dataclass
class SparseOperator:
    """Real symmetric operator held as its entries; duplicates add up."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @cached_property
    def matrix(self):
        """The operator in compressed sparse row form (imports scipy)."""
        import scipy.sparse as sp

        m = sp.coo_matrix((self.vals, (self.rows, self.cols)), shape=(self.dim, self.dim))
        m = m.tocsr()
        m.sum_duplicates()
        return m

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.dim, self.dim))
        np.add.at(h, (self.rows, self.cols), self.vals)
        return h


def operator_from_entries(dim, rows, cols, vals) -> SparseOperator:
    return SparseOperator(
        dim,
        np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp),
        np.asarray(vals, dtype=float),
    )


@dataclass
class SpectrumResult:
    """The lowest degeneracy cluster of a spectrum, every copy of the ground
    level, with eigenvectors and quality metadata."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # dim x m, column i pairs with eigenvalues[i]
    residual_norms: np.ndarray
    method: str = "dense"
    converged: bool = True

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def label_degeneracies(eigenvalues: np.ndarray) -> np.ndarray:
    """Cluster sorted eigenvalues whose gaps fall below
    ``DEGENERACY_RTOL * max(1, |E|)``."""
    e = np.asarray(eigenvalues, dtype=float)
    scale = np.maximum(1.0, np.maximum(np.abs(e[1:]), np.abs(e[:-1])))
    labels = np.zeros(len(e), dtype=np.int64)
    labels[1:] = np.cumsum(np.diff(e) > DEGENERACY_RTOL * scale)
    return labels


def _lowest_cluster_size(sorted_vals: np.ndarray) -> int:
    return int(np.count_nonzero(label_degeneracies(sorted_vals) == 0))


def ground_state(
    op: SparseOperator, *, method: str = "auto", seed: int = 0
) -> SpectrumResult:
    """The lowest degeneracy cluster of a real symmetric sparse operator:
    every copy of the lowest level, and no pair above it."""
    dim = op.dim
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown method {method!r}")
    if dim < 1:
        raise ValueError(f"empty operator (dim {dim})")
    if method == "auto":
        method = "dense" if dim <= DENSE_CUTOFF else "lanczos"
    if method == "dense" or dim <= 32:
        return _dense_lowest(op)
    return _lanczos_lowest(op, seed=seed)


def _dense_lowest(op: SparseOperator) -> SpectrumResult:
    h = op.to_dense()
    vals, vecs = np.linalg.eigh(h)
    m = _lowest_cluster_size(vals)
    return _result(h, vals[:m], vecs[:, :m], "dense")


def _result(h, vals, vecs, method: str) -> SpectrumResult:
    """Pairs of ``h`` (a dense array or the CSR matrix) with residual norms."""
    r = np.linalg.norm(h @ vecs - vecs * vals[None, :], axis=0)
    # dense eigh is backward stable; only the iterative path can fall short
    converged = method == "dense" or bool(
        np.all(r <= RESIDUAL_TOL * np.maximum(1.0, np.abs(vals)))
    )
    return SpectrumResult(
        eigenvalues=vals,
        eigenvectors=vecs,
        residual_norms=r,
        method=method,
        converged=converged,
    )


def _lanczos_lowest(op: SparseOperator, *, seed: int) -> SpectrumResult:
    """ARPACK rounds on the operator with every found pair shifted away.

    Each round asks ``eigsh`` for one pair from a fresh seeded start
    vector.  Found pairs ``Q`` are deflated as
    ``H + sigma Q Q^T`` with ``sigma`` above the Gershgorin bound of the
    spectral width, so a later round sees only the rest of the spectrum and
    its lowest value either adds a copy to the lowest cluster or closes it.
    A single Krylov start can miss copies of a degenerate level, and so can
    one extra round: a round may converge to the next level while copies of
    the lowest are still missing.  The cluster is closed only after two
    consecutive rounds from independent starts both land above it, or from
    the start when Perron-Frobenius proves the ground level simple (up to
    a +-1 gauge, as in every Jaynes-Cummings sector).  A diagonal operator
    takes no round.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    dim = op.dim
    off = op.rows != op.cols
    if not np.any(op.vals[off]):  # no Krylov space: the diagonal is the spectrum
        d = np.bincount(op.rows[~off], weights=op.vals[~off], minlength=dim)
        low = np.argsort(d, kind="stable")[: _lowest_cluster_size(np.sort(d))]
        unit = (np.arange(dim)[:, None] == low).astype(float)
        return _result(op.matrix, d[low], unit, "lanczos")
    rng = np.random.default_rng(seed)
    sigma = 2.0 * float(abs(op.matrix).sum(axis=1).max()) + 1.0
    vals = np.empty(0)
    vecs = np.empty((dim, 0))

    def deflated(x):
        return op.matvec(x) + sigma * (vecs @ (vecs.T @ x))

    a = LinearOperator((dim, dim), matvec=deflated, dtype=float)
    needed = 0 if _perron_frobenius_simple(op.matrix) else CLOSING_ROUNDS
    above = 0  # consecutive later rounds whose lowest value is above the cluster
    while not len(vals) or above < needed:
        theta, x = eigsh(a, k=1, which="SA", v0=rng.standard_normal(dim))
        later = len(vals) > 0
        vals = np.concatenate([vals, theta])
        vecs = np.column_stack([vecs, x])
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        if later:
            # once every pair is found the round returns sigma + lambda_min
            above = above + 1 if theta[0] > vals[_lowest_cluster_size(vals) - 1] else 0
    m = _lowest_cluster_size(vals)
    return _result(op.matrix, vals[:m], vecs[:, :m], "lanczos")


def _perron_frobenius_simple(matrix) -> bool:
    """True when the lowest eigenvalue of a CSR matrix is provably simple:
    the nonzero off-diagonal pattern is connected and a diagonal +-1 gauge
    makes every off-diagonal entry negative (Perron-Frobenius).

    The gauge is a two-colouring in which a negative entry joins equal
    colours and a positive one opposite colours.  In the signed double
    cover (node ``i`` as ``i`` and ``i + dim``, the second copy the other
    colour) a positive entry joins ``i`` to ``j + dim`` and a negative one
    ``i`` to ``j``; the colouring exists and the pattern is connected
    exactly when the cover has two components that separate every ``i``
    from ``i + dim``.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    dim = matrix.shape[0]
    off = sp.triu(matrix, k=1, format="coo")
    off.eliminate_zeros()  # csgraph counts a stored zero as an edge
    other = dim * (off.data > 0.0)
    src = np.concatenate([off.row, off.row + dim])
    dst = np.concatenate([off.col + other, off.col + dim - other])
    cover = sp.coo_matrix((np.ones(len(src)), (src, dst)), shape=(2 * dim, 2 * dim))
    count, labels = connected_components(cover, directed=False)
    return count == 2 and bool(np.all(labels[:dim] != labels[dim:]))
