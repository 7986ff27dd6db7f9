"""Sparse symmetric eigensolver: dense and iterative paths must agree."""

import numpy as np
import pytest

from cavityspin.linalg import (
    SparseOperator,
    ground_state,
    label_degeneracies,
    operator_from_entries,
)


def _scaled_identity(dim, scale=1.0):
    d = np.arange(dim)
    return operator_from_entries(dim, d, d, np.full(dim, scale))


def _random_operator(rng, dim, density=0.05, diag_scale=1.0):
    n_off = max(1, int(density * dim * dim / 2))
    rows = rng.integers(0, dim, size=n_off)
    cols = rng.integers(0, dim, size=n_off)
    vals = rng.normal(size=n_off)
    keep = rows != cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    d = np.arange(dim)
    dvals = diag_scale * rng.normal(size=dim)
    all_rows = np.concatenate([rows, cols, d])
    all_cols = np.concatenate([cols, rows, d])
    all_vals = np.concatenate([vals, vals, dvals])
    return operator_from_entries(dim, all_rows, all_cols, all_vals)


def test_matvec_matches_dense():
    rng = np.random.default_rng(0)
    op = _random_operator(rng, 40)
    h = op.to_dense()
    assert np.max(np.abs(h - h.T)) == 0.0
    v = rng.normal(size=40)
    assert np.allclose(op.matvec(v), h @ v, atol=1e-13)
    assert op.symmetry_defect() == 0.0


def test_dense_and_lanczos_agree_on_random_spectra():
    rng = np.random.default_rng(2)
    for trial in range(5):
        dim = int(rng.integers(60, 140))
        op = _random_operator(rng, dim, density=0.08)
        k = int(rng.integers(1, 6))
        dense = ground_state(op, k, method="dense")
        lanc = ground_state(op, k, method="lanczos", seed=trial)
        assert np.allclose(dense.eigenvalues, lanc.eigenvalues, atol=1e-9)
        # eigenvectors agree up to sign outside degenerate clusters
        for j in range(k):
            overlap = abs(float(dense.eigenvectors[:, j] @ lanc.eigenvectors[:, j]))
            gap_ok = (
                j + 1 < len(dense.eigenvalues)
                and dense.eigenvalues[j + 1] - dense.eigenvalues[j] > 1e-6
            )
            if gap_ok:
                assert overlap > 1 - 1e-7


def test_lanczos_resolves_exact_degeneracies():
    # known spectrum with a 3-fold ground level, hidden by a rotation
    rng = np.random.default_rng(7)
    dim = 90
    evals = np.concatenate([[-2.0, -2.0, -2.0], rng.uniform(-1.0, 3.0, size=dim - 3)])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    h = (q * evals) @ q.T
    h = 0.5 * (h + h.T)
    r, c = np.nonzero(np.ones((dim, dim)))
    op = operator_from_entries(dim, r, c, h[r, c])
    res = ground_state(op, 5, method="lanczos", seed=0)
    assert np.allclose(res.eigenvalues[:3], -2.0, atol=1e-9)
    assert res.ground_multiplet().shape[1] == 3
    # the 3 vectors span the planted eigenspace
    basis = q[:, :3]
    proj = basis @ (basis.T @ res.ground_multiplet())
    assert np.max(np.abs(proj - res.ground_multiplet())) < 1e-7


def test_ground_multiplet_truncation_flag():
    op = _scaled_identity(40, scale=-1.0)  # fully degenerate
    res = ground_state(op, 3, method="lanczos")
    assert res.method == "lanczos"
    assert res.ground_multiplet().shape[1] == 3
    assert res.ground_cluster_truncated  # the cluster continues past k


def test_dense_path_returns_the_whole_ground_cluster():
    res = ground_state(_scaled_identity(10, scale=-1.0), 3, method="dense")
    assert res.ground_multiplet().shape[1] == 10
    assert np.allclose(res.eigenvalues, -1.0)
    assert not res.ground_cluster_truncated
    # a split cluster stops at the first gap; k above it keeps k pairs
    d = np.arange(6)
    op = operator_from_entries(6, d, d, [-2.0, -2.0, -2.0 + 1e-12, -1.0, 0.0, 1.0])
    assert ground_state(op, 1, method="dense").ground_multiplet().shape[1] == 3
    res = ground_state(op, 5, method="dense")
    assert len(res.eigenvalues) == 5 and res.ground_multiplet().shape[1] == 3
    assert not res.ground_cluster_truncated


def test_label_degeneracies_clusters():
    labels = label_degeneracies(np.array([-1.0, -1.0, -0.5, 0.0, 0.0, 0.0]))
    assert list(labels) == [0, 0, 1, 2, 2, 2]


def test_input_validation():
    op = _scaled_identity(4)
    with pytest.raises(ValueError):
        ground_state(op, 0)
    with pytest.raises(ValueError):
        ground_state(op, 5)
    bad = operator_from_entries(3, [0], [1], [1.0], hermitian=False)
    with pytest.raises(ValueError):
        ground_state(bad, 1)
