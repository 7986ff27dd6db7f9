"""Sparse operator container and low-lying eigensolvers.

Small problems (dimension <= DENSE_CUTOFF) go through dense ``eigh``.  Larger
ones use Lanczos with full reorthogonalization plus deflation restarts:
each converged eigenvector is projected out and the iteration restarts from
a fresh seeded random vector, so degenerate multiplets are recovered one
copy at a time instead of being silently merged.  Residual norms
``|H v - E v|`` are reported for every pair on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

DENSE_CUTOFF = 4096
RESIDUAL_TOL = 1e-10
DEGENERACY_RTOL = 1e-8


@dataclass
class SparseOperator:
    """Real Hermitian operator stored in compressed sparse row form."""

    matrix: sp.csr_matrix
    hermitian: bool = True

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def symmetry_defect(self) -> float:
        """Largest |H - H^T| entry; zero for an exactly symmetric assembly."""
        d = self.matrix - self.matrix.T
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def operator_from_entries(dim, rows, cols, vals, hermitian=True) -> SparseOperator:
    m = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)).tocsr()
    m.sum_duplicates()
    return SparseOperator(matrix=m, hermitian=hermitian)


@dataclass
class SpectrumResult:
    """Lowest part of a spectrum with eigenvectors and quality metadata."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # dim x k, column i pairs with eigenvalues[i]
    residual_norms: np.ndarray
    degeneracy: np.ndarray = field(default=None)  # cluster label per eigenvalue
    method: str = "dense"
    converged: bool = True

    def __post_init__(self):
        if self.degeneracy is None:
            self.degeneracy = label_degeneracies(self.eigenvalues)

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    def ground_multiplet(self) -> np.ndarray:
        """Columns spanning the lowest degeneracy cluster among computed pairs."""
        sel = self.degeneracy == self.degeneracy[0]
        return self.eigenvectors[:, sel]

    @property
    def ground_cluster_truncated(self) -> bool:
        """True when the lowest cluster may extend past the computed pairs.

        The dense path sees the whole spectrum and returns the full cluster.
        A Lanczos result is cut short when the lowest cluster fills every
        computed pair and those pairs do not span the space (the vectors'
        row count is the dimension).
        """
        return bool(
            self.method != "dense"
            and len(self.eigenvalues) < self.eigenvectors.shape[0]
            and np.all(self.degeneracy == self.degeneracy[0])
        )


def label_degeneracies(eigenvalues: np.ndarray, rtol: float = DEGENERACY_RTOL) -> np.ndarray:
    """Cluster sorted eigenvalues whose gaps fall below rtol * max(1, |E|)."""
    e = np.asarray(eigenvalues, dtype=float)
    labels = np.zeros(len(e), dtype=np.int64)
    for i in range(1, len(e)):
        gap = e[i] - e[i - 1]
        scale = max(1.0, abs(e[i]), abs(e[i - 1]))
        labels[i] = labels[i - 1] + (0 if gap <= rtol * scale else 1)
    return labels


def ground_state(
    op: SparseOperator,
    k: int = 1,
    *,
    dense_cutoff: int = DENSE_CUTOFF,
    method: str = "auto",
    seed: int = 0,
    tol: float = 1e-11,
    max_restarts: int = 200,
) -> SpectrumResult:
    """Lowest ``k`` eigenpairs of a real symmetric sparse operator."""
    if not op.hermitian:
        raise ValueError("ground_state requires a Hermitian operator")
    dim = op.dim
    if not 1 <= k <= dim:
        raise ValueError(f"k={k} outside [1, {dim}]")
    if method == "auto":
        method = "dense" if dim <= dense_cutoff else "lanczos"
    if method == "dense" or dim <= max(4 * k, 32):
        return _dense_lowest(op, k)
    if method != "lanczos":
        raise ValueError(f"unknown method {method!r}")
    return _lanczos_lowest(op, k, seed=seed, tol=tol, max_restarts=max_restarts)


def _dense_lowest(op: SparseOperator, k: int) -> SpectrumResult:
    """Lowest ``max(k, m)`` pairs, ``m`` the size of the lowest cluster."""
    h = op.to_dense()
    vals, vecs = np.linalg.eigh(h)
    # first gap under the label_degeneracies rule closes the lowest cluster
    scale = np.maximum(1.0, np.maximum(np.abs(vals[1:]), np.abs(vals[:-1])))
    gaps = np.nonzero(np.diff(vals) > DEGENERACY_RTOL * scale)[0]
    m = int(gaps[0]) + 1 if len(gaps) else len(vals)
    n = max(k, m)
    vals, vecs = vals[:n], vecs[:, :n]
    res = _residuals(op, vals, vecs)
    return SpectrumResult(
        eigenvalues=vals, eigenvectors=vecs, residual_norms=res, method="dense"
    )


def _residuals(op: SparseOperator, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    r = op.matrix @ vecs - vecs * vals[None, :]
    return np.linalg.norm(r, axis=0)


def _lanczos_lowest(
    op: SparseOperator,
    k: int,
    *,
    seed: int,
    tol: float,
    max_restarts: int,
) -> SpectrumResult:
    """Deflated Lanczos with full reorthogonalization at every step."""
    dim = op.dim
    rng = np.random.default_rng(seed)
    found_vals: list[float] = []
    found_vecs: list[np.ndarray] = []
    block = min(dim, max(2 * k + 30, 50))
    last_residual = np.inf

    for _ in range(max_restarts):
        if len(found_vals) >= k:
            break
        deflate = np.column_stack(found_vecs) if found_vecs else None
        v = rng.standard_normal(dim)
        v = _orthogonalize(v, deflate)
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue

        steps = min(block, dim - len(found_vals))
        if steps <= 0:
            break
        vmat = np.empty((dim, steps), dtype=float)
        wmat = np.empty((dim, steps), dtype=float)
        vmat[:, 0] = v / nv
        m = 0
        while m < steps:
            w = op.matvec(vmat[:, m])
            wmat[:, m] = w
            a = float(vmat[:, m] @ w)
            m += 1
            if m == steps:
                break
            # full reorthogonalization against deflated and Krylov vectors
            w = _orthogonalize(w, deflate)
            w = _orthogonalize(w, vmat[:, :m])
            b = float(np.linalg.norm(w))
            if b < 1e-13 * max(1.0, abs(a)):
                break  # invariant subspace exhausted
            vmat[:, m] = w / b

        # Rayleigh-Ritz on the built subspace; the tridiagonal coefficients
        # are not trusted because converged Ritz directions re-enter through
        # roundoff and silently break the three-term structure.
        t = vmat[:, :m].T @ wmat[:, :m]
        t = 0.5 * (t + t.T)
        tvals, tvecs = np.linalg.eigh(t)

        accepted_any = False
        for j in range(m):
            if len(found_vals) >= k:
                break
            x = vmat[:, :m] @ tvecs[:, j]
            x = _orthogonalize(x, np.column_stack(found_vecs) if found_vecs else None)
            nx = np.linalg.norm(x)
            if nx < 1e-8:
                continue
            x /= nx
            hx = op.matvec(x)
            theta = float(x @ hx)
            r = float(np.linalg.norm(hx - theta * x))
            last_residual = r
            if r <= tol * max(1.0, abs(theta)):
                found_vals.append(theta)
                found_vecs.append(x)
                accepted_any = True
            else:
                break  # lower pairs must converge before higher ones are kept
        if not accepted_any:
            block = min(dim, block * 2)

    if len(found_vals) < k:
        raise RuntimeError(
            f"Lanczos found {len(found_vals)}/{k} pairs after {max_restarts} "
            f"restarts (last residual {last_residual:.3e})"
        )

    order = np.argsort(found_vals)[:k]
    vals = np.array([found_vals[i] for i in order])
    vecs = np.column_stack([found_vecs[i] for i in order])
    res = _residuals(op, vals, vecs)
    return SpectrumResult(
        eigenvalues=vals,
        eigenvectors=vecs,
        residual_norms=res,
        method="lanczos",
        converged=bool(np.all(res <= RESIDUAL_TOL * np.maximum(1.0, np.abs(vals)))),
    )


def _orthogonalize(v: np.ndarray, basis) -> np.ndarray:
    """Two rounds of classical Gram-Schmidt against the given columns."""
    if basis is None or basis.shape[1] == 0:
        return v
    for _ in range(2):
        v = v - basis @ (basis.T @ v)
    return v
